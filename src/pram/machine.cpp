#include "pram/machine.hpp"

namespace pmonge::pram {

const char* model_name(Model m) {
  switch (m) {
    case Model::CREW:
      return "CREW";
    case Model::CRCW_COMMON:
      return "CRCW-COMMON";
    case Model::CRCW_ARBITRARY:
      return "CRCW-ARBITRARY";
    case Model::CRCW_PRIORITY:
      return "CRCW-PRIORITY";
    case Model::CRCW_COMBINING:
      return "CRCW-COMBINING";
  }
  return "?";
}

bool is_crcw(Model m) { return m != Model::CREW; }

double CostMeter::brent_time(std::uint64_t p) const {
  PMONGE_REQUIRE(p >= 1, "Brent scheduling needs at least one processor");
  return static_cast<double>(work) / static_cast<double>(p) +
         static_cast<double>(time);
}

void CostMeter::reset() {
  time = 0;
  work = 0;
  peak_processors = 0;
}

}  // namespace pmonge::pram
