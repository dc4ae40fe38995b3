// Warm-start session images (ROADMAP item 3b, after lispBM's lbm_image
// idea): flatten a template session's reachable graph — the global Env,
// every closure with its captured frames, struct instances, tables,
// strings, and the driver's definitions — into a versioned, checksummed,
// relocatable blob, then materialize new sessions from the blob with a
// bulk bump-allocation + pointer-fixup pass instead of re-evaluating the
// prelude.
//
// Relocation scheme. The blob never stores a pointer: heap objects
// become node indices, symbols and builtins become name references, and
// fixnums/nil ride immediately. Cloning therefore works into any heap:
// nodes are bump-allocated with placeholder contents (one
// GcHeap::reserve_blocks call pre-grows the free-block list so refills
// never hit the heap-growth path), Env frames are rebuilt parent-first
// with the captured *global* frame mapping onto the target session's
// existing global env, closures are constructed once body and frame
// exist (their compiled-code cache restarts at kCodeUnknown — compile
// state, including a refusal, is never carried across sessions), and a
// final pass patches every cons/vector/table/struct/env slot. Builtins
// are resolved by name against the target session, so native function
// pointers never enter the blob; Kind::Native objects (futures, locks,
// queues) are not serializable and fail capture with a clear error.
//
// Blob layout (all integers little-endian):
//   header  : magic "CURIMG01" | format u32 | flags u32
//             | payload size u64 | FNV-1a-64 checksum u64
//   payload : string table | struct-type table | node table
//             | global-env root | definition roots
//
// load/from_bytes reject magic mismatch, version skew, truncation, and
// checksum corruption with distinct ImageError messages — a daemon
// restarted against a stale or damaged image fails loudly at startup,
// never serves from half a heap.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sexpr/value.hpp"

namespace curare {
class Curare;
}

namespace curare::image {

/// Image-specific failure (corrupt blob, version skew, unserializable
/// object, unresolvable reference). A LispError so the serving layer's
/// catch ladder turns it into a structured error response.
class ImageError : public sexpr::LispError {
 public:
  using sexpr::LispError::LispError;
};

inline constexpr char kImageMagic[8] = {'C', 'U', 'R', 'I',
                                        'M', 'G', '0', '1'};
/// Bump on any change to the node/value encodings below; a blob from a
/// different format version is rejected, never misread.
inline constexpr std::uint32_t kImageFormatVersion = 2;

/// What one clone did, for the session-setup metric and :stats.
struct CloneStats {
  std::size_t nodes = 0;        ///< heap objects materialized
  std::size_t env_frames = 0;   ///< local frames rebuilt
  std::size_t bindings = 0;     ///< global bindings merged
  std::size_t blocks_reserved = 0;  ///< fresh 64 KiB blocks pre-built
  std::uint64_t ns = 0;         ///< wall time of the whole clone
};

class SessionImage {
 public:
  /// Flatten `templ`'s session state (global env + definitions +
  /// registered struct types) into a blob. The template session must be
  /// idle; throws ImageError if the reachable graph holds an object
  /// that cannot relocate (Kind::Native).
  static SessionImage capture(Curare& templ);

  /// Validate and decode a blob; throws ImageError on any damage.
  static SessionImage from_bytes(std::vector<std::uint8_t> bytes);

  /// Read + from_bytes; throws ImageError (also for I/O failures).
  static SessionImage load_file(const std::string& path);

  /// Write the blob; throws ImageError on I/O failure.
  void save_file(const std::string& path) const;

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::size_t node_count() const;

  /// Materialize this image into `target`, a freshly constructed
  /// serving-mode Curare (builtins + runtime primitives installed,
  /// nothing loaded). Idempotence is not supported: clone into a fresh
  /// session only. Thread-safe: the decoded layout is immutable, so any
  /// number of connections may clone concurrently.
  CloneStats clone_into(Curare& target) const;

  /// The parsed, pointer-free layout (definition in image.cpp). Public
  /// so the encode/decode helpers there can reach it; opaque to callers.
  struct Decoded;

 private:
  SessionImage() = default;

  std::vector<std::uint8_t> bytes_;
  std::shared_ptr<const Decoded> decoded_;
};

}  // namespace curare::image
