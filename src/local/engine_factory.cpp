// make_engine lives here rather than in core/engine.cpp so that core/ does
// not depend on local/ (the factory must know every backend, including the
// message-passing one).
#include <stdexcept>
#include <string>

#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "core/spot_check.hpp"
#include "local/message_passing.hpp"

namespace lcp {

std::unique_ptr<ExecutionEngine> make_engine(std::string_view name) {
  if (name == "direct") return std::make_unique<SweepEngine>(1);
  if (name == "message-passing") {
    return std::make_unique<MessagePassingEngine>();
  }
  if (name == "parallel") return std::make_unique<SweepEngine>(0);
  if (name == "incremental") return std::make_unique<IncrementalEngine>();
  if (name == "spotcheck" || name.rfind("spotcheck:", 0) == 0) {
    // The inner spec recurses through the factory; parse_spotcheck_spec
    // rejects nested spot-checks, so the recursion is one level deep.
    SpotCheckSpec spec = parse_spotcheck_spec(name);
    return std::make_unique<SpotCheckEngine>(make_engine(spec.inner),
                                             spec.options);
  }
  throw std::invalid_argument("make_engine: unknown backend '" +
                              std::string(name) + "'");
}

}  // namespace lcp
