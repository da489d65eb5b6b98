// Reply log: at-most-once request semantics.
//
// One of the FTM composite's common parts (Fig. 6). Maps request keys to the
// reply already sent, so a retransmitted request is answered from the log
// instead of re-executed. The log is part of the PBR checkpoint
// (export/import) so at-most-once survives failover.
//
// A key is a RequestKey, the request's (client, id) integers: a lookup
// compares integers. The text "c<client>:<id>" exists only on the wire,
// where a snapshot's encoding writes it (replica_message.cpp), and in log
// lines.
//
// Bounded at kCapacity entries with FIFO eviction: clients retransmit within
// a bounded window, so the oldest entries are dead weight — and the log
// travels inside every PBR checkpoint, so a tight bound keeps checkpoint
// traffic close to the state size. With a bound that small the log is one
// fixed ring of kCapacity {key, reply, seq} entries, oldest first: a lookup
// or a record scans at most kCapacity entries, a re-record updates its entry
// in place without moving it, and no lookup, record or import allocates.
//
// Every reply is held in a shared immutable cell (Value::shared): the kernel
// makes one cell per reply, records it here and sends the same cell to the
// client. A ReplySnapshot (replica_message.hpp) lists the records oldest
// first as {key, cell}, so exporting, shipping and importing the log copy
// handles, never reply maps, and the checkpoint's encoded size sums the
// cells' cached sizes.
//
// For incremental checkpoints, every record is stamped with a monotone
// sequence number; export_since ships only entries newer than the
// acknowledged watermark, and import_delta refuses snapshots whose base is
// ahead of what this log has seen (the caller then falls back to a full
// export/import through the join path).
//
// The kernel and the bricks call the log through its ReplyLog face, the
// only way in. A snapshot comes from a peer's
// log, so it names each key once; one that holds more than kCapacity
// records is refused with FtmError and leaves the log as it was.
#pragma once

#include <array>
#include <cstdint>

#include "rcs/component/component.hpp"
#include "rcs/ftm/interfaces.hpp"

namespace rcs::ftm {

class ReplyLogComponent : public comp::Component, public ReplyLog {
 public:
  /// Entries kept; the oldest is evicted past this.
  static constexpr std::size_t kCapacity = 32;

  [[nodiscard]] static comp::ComponentTypeInfo type_info();

  // ReplyLog face.
  [[nodiscard]] const Value* lookup(const RequestKey& key) const override;
  void record(const RequestKey& key, Value reply) override;
  [[nodiscard]] ReplySnapshot export_all() const override;
  void import_all(const ReplySnapshot& snapshot) override;
  [[nodiscard]] ReplySnapshot export_since() const override;
  void ack_export(std::uint64_t upto) override;
  [[nodiscard]] bool import_delta(const ReplySnapshot& delta) override;

 private:
  struct Entry {
    RequestKey key;
    Value reply;  // a cell
    std::uint64_t seq{0};  // record order, for incremental export
  };

  /// The i-th entry, oldest first (i < size_).
  [[nodiscard]] Entry& at(std::size_t i) {
    return ring_[(head_ + i) % kCapacity];
  }
  [[nodiscard]] const Entry& at(std::size_t i) const {
    return ring_[(head_ + i) % kCapacity];
  }
  [[nodiscard]] Entry* find(const RequestKey& key);
  void pop_oldest();
  /// `state` names the driving op for the fsim "replylog.append" point
  /// ("record" for a fresh reply, "import_delta" for checkpoint import).
  void append(const RequestKey& key, Value reply, const char* state);
  /// The records newer than `after`, oldest first.
  [[nodiscard]] ReplySnapshot snapshot_since(std::uint64_t after) const;
  /// Refuse a snapshot no peer's log could have made.
  static void check_capacity(const ReplySnapshot& snapshot, const char* op);

  std::array<Entry, kCapacity> ring_;
  std::size_t head_{0};            // slot of the oldest entry
  std::size_t size_{0};
  std::uint64_t record_seq_{0};    // stamp of the newest record
  std::uint64_t export_acked_{0};  // primary: highest seq the peer acked
  std::uint64_t import_mark_{0};   // backup: highest seq imported so far
};

}  // namespace rcs::ftm
