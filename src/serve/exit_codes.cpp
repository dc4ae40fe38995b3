#include "serve/exit_codes.hpp"

#include <exception>

#include "runtime/resilience.hpp"

namespace curare::serve {

Failure classify_failure(const runtime::CancelState* tok) {
  auto is_deadline = [](std::string_view why) {
    return why.find("deadline exceeded") != std::string_view::npos;
  };
  try {
    throw;
  } catch (const runtime::StallError& e) {
    const bool deadline =
        is_deadline(e.what()) ||
        (tok != nullptr && tok->cancelled() && is_deadline(tok->reason()));
    return {deadline ? kStatusDeadline : kStatusStall, e.what(), e.dump(),
            std::nullopt};
  } catch (const runtime::ResourceExhausted& e) {
    return {kStatusResourceExhausted, e.what(), {}, e.kind()};
  } catch (const std::exception& e) {
    return {kStatusError, e.what(), {}, std::nullopt};
  } catch (...) {
    return {kStatusError, "unknown exception", {}, std::nullopt};
  }
}

}  // namespace curare::serve
