// Bitwise-faithful text codec for EcoCheckpoint (eco/checkpoint.h).
//
// The session cache spills evicted sessions to disk and must get the exact
// same doubles back — the restored-session ≡ never-evicted-session contract
// is *bitwise*, so ordinary decimal formatting (which rounds) is ruled out.
// Every floating-point value is therefore written as a C99 hexadecimal
// float literal (printf %a), which round-trips any finite double exactly
// and also carries inf (the library's kLpInf upper bounds) and the sign of
// zero. Everything else is a line-oriented tagged text format in the same
// family as io/sink_set.h and io/tree_io.h — greppable spill files beat an
// ad-hoc binary layout for debugging.
//
// The codec is on the serving hot path, not just on eviction: when traffic
// cycles through more sessions than the cache holds, nearly every edit
// restores its session (a 30 s perfbench serve_eco run, 32 sessions over 8
// slots: 25,001 restores and 25,025 evictions for about 25,100 edits), so
// each edit pays one decode and one encode. Both therefore work without
// per-line allocation: the encoder formats %a from the bit pattern into one
// reserved string, and the decoder parses the encoder's own hex form
// directly, falling back to strtod for any other literal (DESIGN.md section
// 15, EXPERIMENTS.md "Checkpoint codec").
//
// Decode validates structure before touching the topology builder (which
// asserts on malformed arenas): a corrupt or truncated spill file yields an
// InvalidArgument, never an abort. Every record line is strict (no trailing
// token, no partial or overflowing integer), and no count reserves more
// than the unread input could hold. The full corrupt-input matrix lives in
// tests/checkpoint_test.cpp.

#ifndef LUBT_SERVE_CHECKPOINT_CODEC_H_
#define LUBT_SERVE_CHECKPOINT_CODEC_H_

#include <string>

#include "eco/checkpoint.h"
#include "util/status.h"

namespace lubt {

/// Serialize a checkpoint. Output round-trips bitwise through
/// DecodeCheckpoint (enforced by tests over randomized sessions).
std::string EncodeCheckpoint(const EcoCheckpoint& checkpoint);

/// Parse EncodeCheckpoint's format. Structural validation only — semantic
/// validation (topology/sink agreement, pair ranges, vector arities)
/// belongs to EcoSession::Restore.
Result<EcoCheckpoint> DecodeCheckpoint(const std::string& text);

/// File convenience wrappers for the session cache's spill directory.
Status StoreCheckpoint(const EcoCheckpoint& checkpoint,
                       const std::string& path);
Result<EcoCheckpoint> LoadCheckpoint(const std::string& path);

/// Rough resident-memory footprint of the session a checkpoint describes,
/// in bytes — the session cache's budget currency. An estimate (the LP
/// model and symbolic factorization are reconstructed, not captured), but a
/// monotone one: bigger instances cost more.
std::size_t ApproxSessionBytes(const EcoCheckpoint& checkpoint);

}  // namespace lubt

#endif  // LUBT_SERVE_CHECKPOINT_CODEC_H_
