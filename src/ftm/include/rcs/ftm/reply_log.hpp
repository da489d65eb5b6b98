// Reply log: at-most-once request semantics.
//
// One of the FTM composite's common parts (Fig. 6). Maps request keys
// ("c<client>:<id>") to the reply already sent, so a retransmitted request is
// answered from the log instead of re-executed. The log is part of the PBR
// checkpoint (export/import) so at-most-once survives failover.
//
// Bounded at kCapacity entries with FIFO eviction: clients retransmit within
// a bounded window, so the oldest entries are dead weight — and the log
// travels inside every PBR checkpoint, so a tight bound keeps checkpoint
// traffic close to the state size. With a bound that small the log is one
// flat FIFO of {key, reply, seq} entries: a lookup or a record scans at most
// kCapacity entries, and a re-record updates its entry in place without
// moving it.
//
// Every reply is held in a shared immutable cell (Value::shared): the kernel
// makes one cell per reply, records it here and sends the same cell to the
// client. A snapshot's entries are those cells, so exporting, shipping and
// importing the log copy handles, never reply maps, and the checkpoint's
// encoded size sums the cells' cached sizes. A snapshot is built sorted by
// key, so each entry appends to its map; an import looks each key up once.
//
// For incremental checkpoints, every record is stamped with a monotone
// sequence number; export_since ships only entries newer than the
// acknowledged watermark, and import_delta refuses snapshots whose base is
// ahead of what this log has seen (the caller then falls back to a full
// export/import through the join path).
//
// The kernel and the bricks call the log through its ReplyLog face, the
// only way in: the log serves no Value ops. Imports validate the whole
// snapshot before touching the log: a snapshot whose order names a key
// twice or a key missing from its entries, or that holds more than
// kCapacity entries, is refused with FtmError and leaves the log as it was.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "rcs/component/component.hpp"
#include "rcs/ftm/interfaces.hpp"

namespace rcs::ftm {

class ReplyLogComponent : public comp::Component, public ReplyLog {
 public:
  /// Entries kept; the oldest is evicted past this.
  static constexpr std::size_t kCapacity = 32;

  [[nodiscard]] static comp::ComponentTypeInfo type_info();

  // ReplyLog face.
  [[nodiscard]] const Value* lookup(const std::string& key) const override;
  void record(const std::string& key, Value reply) override;
  [[nodiscard]] Value export_all() const override;
  void import_all(const Value& snapshot) override;
  [[nodiscard]] Value export_since() const override;
  void ack_export(std::uint64_t upto) override;
  [[nodiscard]] bool import_delta(const Value& delta) override;

 private:
  struct Entry {
    std::string key;
    Value reply;  // a cell
    std::uint64_t seq{0};  // record order, for incremental export
  };

  [[nodiscard]] Entry* find(const std::string& key);
  /// `state` names the driving op for the fsim "replylog.append" point
  /// ("record" for a fresh reply, "import_delta" for checkpoint import).
  void append(const std::string& key, Value reply, const char* state);
  /// {entries, order} of the entries newer than `after`.
  [[nodiscard]] Value snapshot_since(std::uint64_t after) const;

  std::deque<Entry> entries_;      // FIFO: oldest first
  std::uint64_t record_seq_{0};    // stamp of the newest record
  std::uint64_t export_acked_{0};  // primary: highest seq the peer acked
  std::uint64_t import_mark_{0};   // backup: highest seq imported so far
};

}  // namespace rcs::ftm
