#include "rcs/script/interpreter.hpp"

#include "rcs/common/error.hpp"
#include "rcs/common/logging.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/script/parser.hpp"
#include "rcs/script/session.hpp"

namespace rcs::script {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw ScriptException(strf("script error (line ", line, "): ", message));
}

class Execution {
 public:
  Execution(ReconfigSession& session, const Value& bindings)
      : session_(session) {
    if (!bindings.is_null()) {
      for (const auto& [key, value] : bindings.as_map()) {
        variables_[key] = value;
      }
    }
  }

  void run(const std::vector<StmtPtr>& statements) {
    for (const auto& stmt : statements) execute(*stmt);
  }

 private:
  void execute(const Stmt& stmt) {
    std::visit([&](const auto& node) { execute_node(stmt.line, node); },
               stmt.node);
  }

  void execute_node(int line, const VerbStmt& stmt) {
    const auto arg = [&](std::size_t i) -> Value {
      if (i >= stmt.args.size()) {
        fail(line, strf(stmt.verb, ": missing argument ", i + 1));
      }
      return evaluate(*stmt.args[i]);
    };
    const auto str = [&](std::size_t i) -> std::string {
      const Value v = arg(i);
      if (!v.is_string()) {
        fail(line, strf(stmt.verb, ": argument ", i + 1, " must be a string, got ",
                        v.type_name()));
      }
      return v.as_string();
    };
    const auto expect_arity = [&](std::size_t n) {
      if (stmt.args.size() != n) {
        fail(line, strf(stmt.verb, ": expected ", n, " argument(s), got ",
                        stmt.args.size()));
      }
    };

    if (stmt.verb == "add") {
      expect_arity(2);
      session_.add(str(0), str(1));
    } else if (stmt.verb == "remove") {
      expect_arity(1);
      session_.remove(str(0));
    } else if (stmt.verb == "start") {
      expect_arity(1);
      session_.start(str(0));
    } else if (stmt.verb == "stop") {
      expect_arity(1);
      session_.stop(str(0));
    } else if (stmt.verb == "wire") {
      expect_arity(4);
      session_.wire(str(0), str(1), str(2), str(3));
    } else if (stmt.verb == "unwire") {
      expect_arity(2);
      session_.unwire(str(0), str(1));
    } else if (stmt.verb == "set") {
      expect_arity(3);
      session_.set_property(str(0), str(1), arg(2));
    } else if (stmt.verb == "log") {
      expect_arity(1);
      log().info("rscript", arg(0).is_string() ? arg(0).as_string()
                                               : arg(0).to_string());
    } else {
      fail(line, strf("unknown verb '", stmt.verb, "'"));
    }
  }

  void execute_node(int /*line*/, const LetStmt& stmt) {
    variables_[stmt.name] = evaluate(*stmt.expr);
  }

  void execute_node(int line, const RequireStmt& stmt) {
    if (!truthy(evaluate(*stmt.condition))) {
      fail(line, "require condition failed");
    }
  }

  void execute_node(int /*line*/, const IfStmt& stmt) {
    if (truthy(evaluate(*stmt.condition))) {
      run(stmt.then_body);
    } else {
      run(stmt.else_body);
    }
  }

  Value evaluate(const Expr& expr) {
    return std::visit(
        [&](const auto& node) { return evaluate_node(expr.line, node); },
        expr.node);
  }

  Value evaluate_node(int /*line*/, const LiteralExpr& node) { return node.value; }

  Value evaluate_node(int line, const VarExpr& node) {
    const auto it = variables_.find(node.name);
    if (it == variables_.end()) {
      fail(line, strf("undefined variable '", node.name, "'"));
    }
    return it->second;
  }

  Value evaluate_node(int line, const CallExpr& node) {
    comp::Composite& composite = session_.composite();
    const auto str_arg = [&](std::size_t i) -> std::string {
      if (i >= node.args.size()) {
        fail(line, strf(node.function, ": missing argument ", i + 1));
      }
      const Value v = evaluate(*node.args[i]);
      if (!v.is_string()) {
        fail(line, strf(node.function, ": argument ", i + 1, " must be a string"));
      }
      return v.as_string();
    };

    if (node.function == "exists") {
      return Value(composite.has(str_arg(0)));
    }
    if (node.function == "started") {
      const auto name = str_arg(0);
      return Value(composite.has(name) && composite.child(name).started());
    }
    if (node.function == "wired") {
      return Value(composite.is_wired(str_arg(0), str_arg(1)));
    }
    if (node.function == "property") {
      return composite.property(str_arg(0), str_arg(1));
    }
    if (node.function == "typeof") {
      const auto name = str_arg(0);
      if (!composite.has(name)) return Value{};
      return Value(composite.child(name).type_name());
    }
    fail(line, strf("unknown function '", node.function, "'"));
  }

  Value evaluate_node(int /*line*/, const NotExpr& node) {
    return Value(!truthy(evaluate(*node.operand)));
  }

  Value evaluate_node(int /*line*/, const BinaryExpr& node) {
    switch (node.op) {
      case BinaryExpr::Op::kEq:
        return Value(evaluate(*node.lhs) == evaluate(*node.rhs));
      case BinaryExpr::Op::kNeq:
        return Value(evaluate(*node.lhs) != evaluate(*node.rhs));
      case BinaryExpr::Op::kAnd:
        // Short-circuit.
        if (!truthy(evaluate(*node.lhs))) return Value(false);
        return Value(truthy(evaluate(*node.rhs)));
      case BinaryExpr::Op::kOr:
        if (truthy(evaluate(*node.lhs))) return Value(true);
        return Value(truthy(evaluate(*node.rhs)));
    }
    throw LogicError("unreachable binary op");
  }

  static bool truthy(const Value& value) {
    if (value.is_bool()) return value.as_bool();
    if (value.is_null()) return false;
    if (value.is_int()) return value.as_int() != 0;
    if (value.is_string()) return !value.as_string().empty();
    return true;
  }

  ReconfigSession& session_;
  std::map<std::string, Value> variables_;
};

}  // namespace

ExecutionStats Interpreter::run(const Script& script, comp::Composite& composite,
                                const Value& bindings) {
  ReconfigSession session(composite);
  try {
    Execution execution(session, bindings);
    execution.run(script.statements);
    session.commit();  // validates integrity constraints; may roll back+throw
  } catch (const ScriptException&) {
    // Session destructor / commit already rolled back.
    throw;
  } catch (const Error& e) {
    // Component-model violation mid-script: roll back and wrap, preserving
    // the paper's contract that a failed reconfiguration surfaces as a
    // ScriptException with the architecture unchanged.
    session.rollback();
    throw ScriptException(strf("reconfiguration failed: ", e.what(),
                               " (transaction rolled back)"));
  }
  ExecutionStats stats;
  stats.ops = session.op_count();
  stats.by_verb = session.ops_by_verb();
  return stats;
}

ExecutionStats Interpreter::run_source(std::string_view source,
                                       comp::Composite& composite,
                                       const Value& bindings) {
  return run(*parse_shared(source), composite, bindings);
}

}  // namespace rcs::script
