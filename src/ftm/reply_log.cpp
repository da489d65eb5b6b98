#include "rcs/ftm/reply_log.hpp"

#include <algorithm>
#include <array>

#include "rcs/common/error.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/ftm/config.hpp"
#include "rcs/ftm/interfaces.hpp"
#include "rcs/sim/host.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::ftm {

comp::ComponentTypeInfo ReplyLogComponent::type_info() {
  comp::ComponentTypeInfo info;
  info.type_name = kernel::kReplyLog;
  info.description = "at-most-once reply log (common part)";
  info.category = comp::TypeCategory::kKernel;
  info.services = {{"log", iface::kReplyLog}};
  info.code_size = 24'000;
  info.source_file = "src/ftm/reply_log.cpp";
  info.factory = [] { return std::make_unique<ReplyLogComponent>(); };
  return info;
}

namespace {

/// The entries of an export-shaped snapshot, in the order its "order" names
/// them, after checking that every key of that order names an entry, once:
/// one lookup per key. An exporter's log never holds more than kCapacity
/// entries, so a snapshot with more is refused as well. Nothing is applied
/// before this passes, so a refused snapshot leaves the log untouched.
struct NamedEntries {
  std::array<const ValueMap::value_type*, ReplyLogComponent::kCapacity>
      entries{};
  std::size_t count{0};
};

NamedEntries checked_entries(const Value& snapshot, const char* op) {
  const ValueMap& entries = snapshot.at("entries").as_map();
  if (entries.size() > ReplyLogComponent::kCapacity) {
    throw FtmError(strf("replyLog ", op, ": ", entries.size(),
                        " entries, more than the capacity of ",
                        ReplyLogComponent::kCapacity));
  }
  // Bit i is set once the order named entries[i].
  static_assert(ReplyLogComponent::kCapacity <= 64);
  std::uint64_t named = 0;
  NamedEntries out;
  for (const auto& key_value : snapshot.at("order").as_list()) {
    const auto& key = key_value.as_string();
    const auto it = entries.find(key);
    if (it == entries.end()) {
      throw FtmError(strf("replyLog ", op, ": order key '", key,
                          "' missing from entries"));
    }
    const std::uint64_t bit = std::uint64_t{1} << (it - entries.begin());
    if ((named & bit) != 0) {
      throw FtmError(strf("replyLog ", op, ": order key '", key,
                          "' appears twice"));
    }
    named |= bit;
    out.entries[out.count++] = &*it;
  }
  return out;
}

}  // namespace

ReplyLogComponent::Entry* ReplyLogComponent::find(const std::string& key) {
  for (auto& entry : entries_) {
    if (entry.key == key) return &entry;
  }
  return nullptr;
}

const Value* ReplyLogComponent::lookup(const std::string& key) const {
  const Entry* entry = const_cast<ReplyLogComponent*>(this)->find(key);
  return entry != nullptr ? &entry->reply : nullptr;
}

void ReplyLogComponent::record(const std::string& key, Value reply) {
  append(key, std::move(reply), "record");
}

void ReplyLogComponent::append(const std::string& key, Value reply,
                               const char* state) {
  if (host() != nullptr && host()->sim().fsim().enabled()) {
    // fsim "replylog.append": storage pressure on the at-most-once log. The
    // append itself must never be lost (a dropped entry re-executes a
    // retransmitted request), so the log sheds its oldest entry and the
    // append proceeds — the same policy FIFO eviction already encodes,
    // triggered early.
    fsim::Registry& fsim = host()->sim().fsim();
    const fsim::Site site{state, reply.encoded_size(),
                          static_cast<std::int64_t>(host()->sim().now())};
    if (fsim.should_fail(fsim::Point::kReplylogAppend, site) &&
        !entries_.empty()) {
      entries_.pop_front();
    }
  }
  if (Entry* entry = find(key)) {
    // A re-record keeps its FIFO slot.
    entry->reply = Value::shared(std::move(reply));
    entry->seq = ++record_seq_;
  } else {
    entries_.push_back(
        Entry{key, Value::shared(std::move(reply)), ++record_seq_});
  }
  if (entries_.size() > kCapacity) entries_.pop_front();
}

Value ReplyLogComponent::snapshot_since(std::uint64_t after) const {
  // The log holds at most kCapacity entries (every append evicts to it).
  std::array<const Entry*, kCapacity> picked{};
  std::size_t count = 0;
  for (const auto& entry : entries_) {
    if (entry.seq > after) picked[count++] = &entry;
  }
  ValueList order;
  order.reserve(count);
  for (std::size_t i = 0; i < count; ++i) order.emplace_back(picked[i]->key);
  // Sorted by key, every insert into the entries map is an append; the
  // records themselves are cells, so each entry copies a handle.
  std::sort(picked.begin(), picked.begin() + count,
            [](const Entry* a, const Entry* b) { return a->key < b->key; });
  ValueMap entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    entries.emplace(picked[i]->key, picked[i]->reply);
  }
  Value out = Value::map();
  out.set("entries", std::move(entries)).set("order", std::move(order));
  return out;
}

Value ReplyLogComponent::export_all() const {
  return snapshot_since(0).set("upto", static_cast<std::int64_t>(record_seq_));
}

void ReplyLogComponent::import_all(const Value& snapshot) {
  const NamedEntries named = checked_entries(snapshot, "import");
  const auto upto =
      static_cast<std::uint64_t>(snapshot.get_or("upto", Value(0)).as_int());
  // At most kCapacity entries pass the check: nothing to evict.
  entries_.clear();
  for (std::size_t i = 0; i < named.count; ++i) {
    const auto& [key, reply] = *named.entries[i];
    entries_.push_back(Entry{key, Value::shared(reply), ++record_seq_});
  }
  // A full import realigns the incremental watermark with the exporter.
  import_mark_ = upto;
}

Value ReplyLogComponent::export_since() const {
  // Only entries recorded after the peer's last acknowledgement travel;
  // "from" lets the importer detect that it missed an earlier delta.
  return snapshot_since(export_acked_)
      .set("from", static_cast<std::int64_t>(export_acked_))
      .set("upto", static_cast<std::int64_t>(record_seq_));
}

void ReplyLogComponent::ack_export(std::uint64_t upto) {
  if (upto > export_acked_) export_acked_ = upto;
}

bool ReplyLogComponent::import_delta(const Value& delta) {
  const auto from = static_cast<std::uint64_t>(delta.at("from").as_int());
  const auto upto = static_cast<std::uint64_t>(delta.at("upto").as_int());
  if (from > import_mark_) {
    // The exporter believes we acked entries we never saw: a delta between
    // its "from" and our mark is missing. Refuse; caller resyncs in full.
    return false;
  }
  const NamedEntries named = checked_entries(delta, "import_delta");
  for (std::size_t i = 0; i < named.count; ++i) {
    const auto& [key, reply] = *named.entries[i];
    append(key, reply, "import_delta");
  }
  if (upto > import_mark_) import_mark_ = upto;
  return true;
}

}  // namespace rcs::ftm
