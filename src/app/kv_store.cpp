// Key-value store application.
//
// Requests: {"op": "put", "key", "value"} -> {"ok": true}
//           {"op": "get", "key"}          -> {"found": bool, "value"?}
//           {"op": "incr", "key", "by"?}  -> {"value": new count}
// Every result carries a content checksum; the assertion recomputes it, so
// any value fault that corrupts a result is detectable (an "executable
// assertion" in the paper's sense). The state exposes a filler blob sized by
// the "state_size" property, making checkpoint traffic realistic.
#include <cstdint>
#include <iterator>
#include <map>

#include "rcs/app/app_base.hpp"
#include "rcs/app/apps.hpp"
#include "rcs/common/error.hpp"
#include "rcs/common/strf.hpp"

namespace rcs::app {

namespace {

class KvStore final : public AppServerBase {
 protected:
  void on_start() override {
    AppServerBase::on_start();
    read_primary_bug();
    read_state_size();
  }

  void on_property_changed(const std::string& key) override {
    AppServerBase::on_property_changed(key);
    if (key == "primary_bug") read_primary_bug();
    if (key == "state_size") read_state_size();
  }

  Value compute(const Value& request) override {
    // The "primary_bug" property plants a development fault in THIS variant
    // only: increments come out negated — wrong, checksummed, and caught
    // only by a semantic acceptance test (the recovery-blocks scenario).
    return with_checksum(execute(request, primary_bug_));
  }

  Value compute_alternate(const Value& request) override {
    // Independently written variant (design diversity): never carries the
    // planted primary bug.
    return with_checksum(execute(request, /*buggy=*/false));
  }

  Value execute(const Value& request, bool buggy) {
    const auto& op = request.at("op").as_string();
    Value result = Value::map();
    if (op == "put") {
      const auto& key = request.at("key").as_string();
      data_[key] = request.at("value");
      dirty_[key] = mutation_epoch();
      result.set("ok", true);
    } else if (op == "get") {
      const auto it = data_.find(request.at("key").as_string());
      result.set("found", it != data_.end());
      if (it != data_.end()) result.set("value", it->second);
    } else if (op == "incr") {
      const auto& key = request.at("key").as_string();
      const auto by = request.get_or("by", Value(1)).as_int();
      auto& slot = data_[key];
      const auto current = slot.is_int() ? slot.as_int() : 0;
      slot = Value(current + by);
      dirty_[key] = mutation_epoch();
      result.set("value", buggy ? -(current + by) : current + by);
    } else {
      throw FtmError(strf("kvstore: unknown op '", op, "'"));
    }
    return result;
  }

  Value state_get() override {
    Value entries = Value::map();
    for (const auto& [key, value] : data_) entries.set(key, value);
    Value state = Value::map();
    state.set("entries", std::move(entries));
    // Pad to the configured state size so checkpoints cost realistic
    // bandwidth (the R dimension of PBR vs LFR in Table 1).
    const auto base = state.encoded_size();
    const std::size_t filler = base < state_size_ ? state_size_ - base : 0;
    // Every checkpoint ships the same filler: rebuild it only when its size
    // changes, and share it by handle otherwise.
    if (filler_.size() != filler) {
      filler_ = SharedBytes(Bytes(filler, 0x5A));
    }
    state.set("filler", Value(filler_));
    return state;
  }

  void state_set(const Value& state) override {
    // A wholesale replacement (TR snapshot restore, exec_result adoption,
    // full checkpoint) invalidates fine-grained knowledge: conservatively
    // mark the union of old and new keys dirty, so the next delta capture
    // ships every key this reset may have changed or removed. The map is
    // replaced in place, one merge walk over both key orders: keys in both
    // states are assigned, gone ones erased, new ones inserted.
    const auto epoch = mutation_epoch();
    auto slot = data_.begin();
    const auto drop = [&] {
      dirty_[slot->first] = epoch;
      slot = data_.erase(slot);
    };
    for (const auto& [key, value] : state.at("entries").as_map()) {
      while (slot != data_.end() && slot->first < key) drop();
      if (slot != data_.end() && slot->first == key) {
        slot->second = value;
      } else {
        slot = data_.emplace_hint(slot, key, value);
      }
      dirty_[key] = epoch;
      ++slot;
    }
    while (slot != data_.end()) drop();
  }

  // --- Incremental checkpointing -------------------------------------------
  bool supports_state_delta() const override { return true; }

  Value delta_capture() override {
    // Everything mutated since the last ACK: present keys travel as entries,
    // keys that vanished (a state_set restore dropped them) as "gone".
    Value entries = Value::map();
    Value gone = Value::list();
    for (const auto& [key, epoch] : dirty_) {
      const auto it = data_.find(key);
      if (it != data_.end()) {
        entries.set(key, it->second);
      } else {
        gone.push_back(key);
      }
    }
    return Value::map().set("entries", std::move(entries))
        .set("gone", std::move(gone));
  }

  void delta_apply(const Value& delta) override {
    for (const auto& [key, value] : delta.at("entries").as_map()) {
      data_[key] = value;
    }
    for (const auto& key : delta.at("gone").as_list()) {
      data_.erase(key.as_string());
    }
  }

  void delta_ack(std::uint64_t seq) override {
    for (auto it = dirty_.begin(); it != dirty_.end();) {
      it = it->second <= seq ? dirty_.erase(it) : std::next(it);
    }
  }

  void delta_clear() override { dirty_.clear(); }

  bool assertion(const Value& /*request*/, const Value& result) override {
    if (!checksum_ok(result)) return false;
    // Semantic safety property (the recovery-blocks acceptance test):
    // counters never go negative.
    if (result.has("value") && result.at("value").is_int() &&
        result.at("value").as_int() < 0) {
      return false;
    }
    return true;
  }

 private:
  void read_primary_bug() {
    const Value v = property("primary_bug");
    primary_bug_ = v.is_bool() && v.as_bool();
  }
  void read_state_size() {
    const Value v = property("state_size");
    state_size_ = static_cast<std::size_t>(v.is_int() ? v.as_int() : 4096);
  }

  std::map<std::string, Value> data_;
  /// The "primary_bug" and "state_size" properties, read when set.
  bool primary_bug_{false};
  std::size_t state_size_{4096};
  /// The state's padding, shared by every state_get of the same size.
  SharedBytes filler_;
  // key -> mutation_epoch() at last write; survives captures, cleared by acks.
  std::map<std::string, std::uint64_t> dirty_;
};

}  // namespace

comp::ComponentTypeInfo kv_store_type() {
  comp::ComponentTypeInfo info;
  info.type_name = kKvStore;
  info.description = "deterministic stateful key-value store";
  info.category = comp::TypeCategory::kApplication;
  info.services = app_services(/*state_access=*/true, /*has_assertion=*/true);
  info.default_properties
      .set("cpu_us",
           static_cast<std::int64_t>(AppServerBase::kDefaultCpuPerRequest))
      .set("state_size", std::int64_t{4096})
      .set("primary_bug", false);
  info.code_size = 30'000;
  info.source_file = "src/app/kv_store.cpp";
  info.factory = [] { return std::make_unique<KvStore>(); };
  return info;
}

}  // namespace rcs::app
