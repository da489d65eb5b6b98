// RScript interpreter.
//
// Executes a parsed Script against a Composite inside a ReconfigSession.
// Any failure — a reconfiguration verb rejected by the component model, a
// violated `require`, a type error in an expression, or a post-commit
// integrity-constraint violation — rolls the whole transaction back and
// surfaces as ScriptException: the architecture is left untouched
// (all-or-nothing, §5.3).
//
// Verbs:      add(type, name); remove(name); start(name); stop(name);
//             wire(from, ref, to, svc); unwire(from, ref);
//             set(name, key, value); log(message);
// Builtins:   exists(name), started(name), wired(from, ref),
//             property(name, key), typeof(name)
// Bindings:   caller-supplied variables (e.g. role = "master"), read as
//             plain identifiers in expressions.
#pragma once

#include <map>
#include <string>

#include "rcs/common/value.hpp"
#include "rcs/component/composite.hpp"
#include "rcs/script/ast.hpp"

namespace rcs::script {

struct ExecutionStats {
  int ops{0};                          // reconfiguration verbs executed
  std::map<std::string, int> by_verb;  // add/remove/start/stop/wire/unwire/set
};

class Interpreter {
 public:
  /// Run a parsed script transactionally. `bindings` must be a Value map
  /// (or null); its entries become read-only variables.
  static ExecutionStats run(const Script& script, comp::Composite& composite,
                            const Value& bindings = Value::map());

  /// Parse + run in one step; each distinct source is parsed once per
  /// process (parse_shared).
  static ExecutionStats run_source(std::string_view source,
                                   comp::Composite& composite,
                                   const Value& bindings = Value::map());
};

}  // namespace rcs::script
