// Transactional reconfiguration session.
//
// Wraps a Composite with journaled mutations: every operation records its
// inverse, and rollback() undoes everything in reverse order. This gives the
// all-or-nothing semantics the paper requires of its FScript substrate
// (§5.3 "local consistency"): a failed or constraint-violating transition
// leaves the architecture exactly as it was.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "rcs/common/error.hpp"
#include "rcs/common/value.hpp"
#include "rcs/component/composite.hpp"

namespace rcs::script {

class ReconfigSession {
 public:
  explicit ReconfigSession(comp::Composite& composite) : composite_(composite) {}
  ~ReconfigSession();

  ReconfigSession(const ReconfigSession&) = delete;
  ReconfigSession& operator=(const ReconfigSession&) = delete;

  // Journaled mirrors of the composite's reconfiguration API. Each throws
  // ComponentError on violation exactly as the composite does.
  void add(const std::string& type_name, const std::string& instance_name);
  void remove(const std::string& instance_name);
  void start(const std::string& instance_name);
  void stop(const std::string& instance_name);
  void wire(const std::string& from, const std::string& reference,
            const std::string& to, const std::string& service);
  void unwire(const std::string& from, const std::string& reference);
  void set_property(const std::string& instance_name, const std::string& key,
                    Value value);

  /// Validate integrity constraints and finalize. Throws ScriptException
  /// (after rolling back) if the resulting configuration is invalid.
  void commit();

  /// Undo all journaled operations in reverse order. Idempotent.
  void rollback();

  [[nodiscard]] bool finished() const { return committed_ || rolled_back_; }
  /// Number of reconfiguration operations executed (for cost accounting).
  [[nodiscard]] int op_count() const { return op_count_; }
  [[nodiscard]] const std::map<std::string, int>& ops_by_verb() const {
    return ops_by_verb_;
  }

  [[nodiscard]] comp::Composite& composite() { return composite_; }

 private:
  void record(std::function<void()> inverse);
  void count(const std::string& verb);

  comp::Composite& composite_;
  std::vector<std::function<void()>> journal_;
  std::map<std::string, int> ops_by_verb_;
  int op_count_{0};
  bool committed_{false};
  bool rolled_back_{false};
};

}  // namespace rcs::script
