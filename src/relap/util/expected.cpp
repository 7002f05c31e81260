#include "relap/util/expected.hpp"

#include <string>

namespace relap::util {

Error make_error(std::string code, std::string message) {
  return Error{std::move(code), std::move(message)};
}

Error infeasible(std::string message) { return Error{"infeasible", std::move(message)}; }

Error budget_exceeded(std::string message) { return Error{"budget", std::move(message)}; }

Error malformed(std::string message) { return Error{"malformed", std::move(message)}; }

Error parse_error(int line, std::string message) {
  return Error{"parse", "line " + std::to_string(line) + ": " + std::move(message)};
}

}  // namespace relap::util
