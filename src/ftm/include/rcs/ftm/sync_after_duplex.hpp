// Shared machinery of the duplex syncAfter bricks.
//
// This mirrors the paper's second design loop (§4.2): what is common to all
// duplex agreement phases — assertion checking with re-execution on the other
// node (the A&Duplex recovery, §3.2.1), serving a peer's re-execution
// request, and replica-rejoin snapshots — is factored here; PBR and LFR
// subclasses supply only their own agreement action (checkpoint vs notify).
#pragma once

#include <string>

#include "rcs/ftm/bricks.hpp"

namespace rcs::ftm {

class SyncAfterDuplexBase : public FtmBrick {
 public:
  /// The reference order of every duplex syncAfter type: control, replyLog,
  /// state, then, for an asserting variant, server and assertion.
  static constexpr BrickSlots kSlots{
      .control = 0, .reply_log = 1, .server = 3, .state = 2, .assertion = 4};

  BrickStatus run_phase(const RequestCtx& ctx) override;
  BrickStatus on_peer(const RequestCtx* ctx,
                      const PeerMessage& message) override;
  /// Anchor a rejoining replica: application state (with its checkpoint
  /// stream position) and the reply log.
  JoinSnapshot make_join_snapshot() override;
  void apply_join_snapshot(const JoinSnapshot& snapshot) override;

 protected:
  explicit SyncAfterDuplexBase(bool with_assertion)
      : FtmBrick(kSlots), with_assertion_(with_assertion) {}

  /// Strategy-specific agreement action for the master side: done after a
  /// fire-and-forget, wait for an ack.
  virtual BrickStatus master_after(const RequestCtx& ctx) = 0;
  /// Strategy-specific handling of a solicited peer message (the kind the
  /// master waited for) — checkpoint_ack / notify.
  virtual BrickStatus on_solicited(const RequestCtx& ctx,
                                   const PeerMessage& message) = 0;
  /// Strategy-specific handling of unsolicited messages (slave side):
  /// checkpoint application, early notifications...
  virtual BrickStatus on_unsolicited(const PeerMessage& message) = 0;
  /// Follower-side behaviour for a forwarded context reaching After.
  virtual BrickStatus forwarded_after(const RequestCtx& ctx) = 0;

  [[nodiscard]] bool with_assertion() const { return with_assertion_; }

  // --- Shared helpers -------------------------------------------------------
  /// Read the application state if the state manager is wired.
  [[nodiscard]] Value capture_state();
  void restore_state(const Value& state);

 private:
  BrickStatus handle_exec_request(const PeerMessage& message);
  BrickStatus handle_exec_result(const PeerMessage& message);

  bool with_assertion_;
};

}  // namespace rcs::ftm
