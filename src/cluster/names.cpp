#include "cluster/names.hpp"

#include "common/check.hpp"

namespace qadist::cluster {

std::string_view to_string(Policy policy) {
  switch (policy) {
    case Policy::kDns:
      return "DNS";
    case Policy::kInter:
      return "INTER";
    case Policy::kDqa:
      return "DQA";
    case Policy::kTwoChoice:
      return "TWO-CHOICE";
  }
  QADIST_UNREACHABLE("bad Policy");
}

}  // namespace qadist::cluster
