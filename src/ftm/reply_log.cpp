#include "rcs/ftm/reply_log.hpp"

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

ReplyLogComponent::Entry* ReplyLogComponent::find(const RequestKey& key) {
  for (std::size_t i = 0; i < size_; ++i) {
    if (at(i).key == key) return &at(i);
  }
  return nullptr;
}

const Value* ReplyLogComponent::lookup(const RequestKey& key) const {
  const Entry* entry = const_cast<ReplyLogComponent*>(this)->find(key);
  return entry != nullptr ? &entry->reply : nullptr;
}

void ReplyLogComponent::record(const RequestKey& key, Value reply) {
  append(key, std::move(reply), "record");
}

void ReplyLogComponent::pop_oldest() {
  ring_[head_].reply = Value{};  // drop the handle with the entry
  head_ = (head_ + 1) % kCapacity;
  --size_;
}

void ReplyLogComponent::append(const RequestKey& key, Value reply,
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
    if (fsim.should_fail(fsim::Point::kReplylogAppend, site) && size_ > 0) {
      pop_oldest();
    }
  }
  if (Entry* entry = find(key)) {
    // A re-record keeps its FIFO slot.
    entry->reply = Value::shared(std::move(reply));
    entry->seq = ++record_seq_;
    return;
  }
  if (size_ == kCapacity) pop_oldest();
  Entry& slot = at(size_++);
  slot.key = key;
  slot.reply = Value::shared(std::move(reply));
  slot.seq = ++record_seq_;
}

ReplySnapshot ReplyLogComponent::snapshot_since(std::uint64_t after) const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < size_; ++i) count += at(i).seq > after ? 1 : 0;
  ReplySnapshot out;
  out.records.reserve(count);
  for (std::size_t i = 0; i < size_; ++i) {
    const Entry& entry = at(i);
    if (entry.seq > after) out.records.push_back({entry.key, entry.reply});
  }
  out.upto = record_seq_;
  return out;
}

ReplySnapshot ReplyLogComponent::export_all() const {
  return snapshot_since(0);
}

void ReplyLogComponent::check_capacity(const ReplySnapshot& snapshot,
                                       const char* op) {
  if (snapshot.records.size() > kCapacity) {
    throw FtmError(strf("replyLog ", op, ": ", snapshot.records.size(),
                        " records, more than the capacity of ", kCapacity));
  }
}

void ReplyLogComponent::import_all(const ReplySnapshot& snapshot) {
  check_capacity(snapshot, "import");
  // The records fill the ring from slot 0; slots past them drop their
  // handles.
  head_ = 0;
  size_ = snapshot.records.size();
  for (std::size_t i = 0; i < kCapacity; ++i) {
    Entry& entry = ring_[i];
    if (i < size_) {
      entry.key = snapshot.records[i].key;
      entry.reply = Value::shared(snapshot.records[i].reply);
      entry.seq = ++record_seq_;
    } else {
      entry.reply = Value{};
    }
  }
  // A full import realigns the incremental watermark with the exporter.
  import_mark_ = snapshot.upto;
}

ReplySnapshot ReplyLogComponent::export_since() const {
  // Only entries recorded after the peer's last acknowledgement travel;
  // "from" lets the importer detect that it missed an earlier delta.
  ReplySnapshot out = snapshot_since(export_acked_);
  out.from = export_acked_;
  return out;
}

void ReplyLogComponent::ack_export(std::uint64_t upto) {
  if (upto > export_acked_) export_acked_ = upto;
}

bool ReplyLogComponent::import_delta(const ReplySnapshot& delta) {
  if (delta.from > import_mark_) {
    // The exporter believes we acked entries we never saw: a delta between
    // its "from" and our mark is missing. Refuse; caller resyncs in full.
    return false;
  }
  check_capacity(delta, "import_delta");
  for (const auto& record : delta.records) {
    append(record.key, record.reply, "import_delta");
  }
  if (delta.upto > import_mark_) import_mark_ = delta.upto;
  return true;
}

}  // namespace rcs::ftm
