#ifndef CYCLESTREAM_ENGINE_SPEC_H_
#define CYCLESTREAM_ENGINE_SPEC_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "engine/query.h"

namespace cyclestream::engine {

/// Text codec for QuerySpec files: one query per line of whitespace-
/// separated `key=value` tokens, `#` comments. This is the `serve` spec
/// format, and also the wire format the shard coordinator uses to hand a
/// resolved query set to its worker processes — so the round trip
/// Write -> Parse must be lossless (doubles are emitted with max_digits10
/// precision and re-parse to the identical bits).
///
/// Keys: name, kind, seed, budget, epsilon, c, t_guess, level_rate,
/// prefix_rate, reservoir, num_vertices, window, window_buckets,
/// decay_epoch, decay_log2.
///
/// Parsing is strict: every numeric value must be fully consumed (a
/// trailing-garbage token like `seed=5x` is an error, not 5), and the
/// unsigned keys (seed, budget, reservoir, num_vertices) reject a leading
/// `-` instead of wrapping through the unsigned parse.
/// Any malformation fails the whole file with a `<label>:<line>:` error.

/// Parses `in`, appending one QuerySpec per non-empty line. `label` names
/// the source in error messages (a path, or "<spec>" for tests). Returns
/// false and sets `*error` on the first malformed line; `*specs` then holds
/// only the lines before it.
bool ParseSpecStream(std::istream& in, const std::string& label,
                     const QuerySpec& defaults, std::vector<QuerySpec>* specs,
                     std::string* error);

/// Opens and parses a spec file. False with `*error` set if the file cannot
/// be opened or any line is malformed.
bool ParseSpecFile(const std::string& path, const QuerySpec& defaults,
                   std::vector<QuerySpec>* specs, std::string* error);

/// One spec as a parseable line (every key explicit, doubles exact).
std::string FormatSpecLine(const QuerySpec& spec);

/// Writes `specs` as a spec file (one FormatSpecLine per query) through
/// io::WriteFileAtomic. False with `*error` set on I/O failure.
bool WriteSpecFile(const std::string& path,
                   const std::vector<QuerySpec>& specs, std::string* error);

/// Order-sensitive fingerprint over every spec field that changes results.
/// Binds shard state files and epoch checkpoints to the exact query set
/// that produced them.
std::uint64_t FingerprintSpecs(const std::vector<QuerySpec>& specs);

}  // namespace cyclestream::engine

#endif  // CYCLESTREAM_ENGINE_SPEC_H_
