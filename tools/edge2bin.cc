// edge2bin — converts text edge lists to the binary edge-stream format
// (graph/binary_io.h) and back, and text turnstile streams to the binary
// turnstile format v2 (stream/dynamic/turnstile_io.h) and back.
//
//   edge2bin IN.txt OUT.bin [--num_vertices N]
//   edge2bin --turnstile IN.txt OUT.bin [--num_vertices N]
//   edge2bin --to-text IN.bin OUT.txt      (auto-detects v1 vs v2)
//
// The text parser here deliberately differs from LoadEdgeListText: vertex
// ids are taken *literally* (no densification), duplicates are kept, and
// edge order is preserved — a .bin file is a stream, not a graph, and the
// conversion must be invertible. For a file produced by SaveEdgeListText
// (e.g. `cyclestream_cli generate`), text -> bin -> text reproduces the
// original byte-for-byte, which CI asserts with `diff`.
//
// Turnstile text streams are one update per line: `+ u v` (insert) or
// `- u v` (delete), with an optional
// "# cyclestream turnstile stream: N vertices, M updates" header comment.
// The same byte-for-byte round-trip contract holds (--turnstile -> --to-text
// diffs clean), and --to-text refuses concatenated/mixed-version files via
// the readers' exact-size checks.
//
// The vertex count comes from --num_vertices, else from the
// "# cyclestream edge list: N vertices, ..." (or turnstile) header comment,
// else from max(id)+1. Self-loops are errors (the binary formats cannot
// represent them); reversed endpoints (u > v) are canonicalized with a
// counted warning.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "graph/binary_io.h"
#include "graph/types.h"
#include "stream/dynamic/turnstile.h"
#include "stream/dynamic/turnstile_io.h"
#include "util/crc32.h"
#include "util/flags.h"
#include "util/frame.h"
#include "util/io.h"

namespace cyclestream {
namespace {

int Usage() {
  std::cerr << "usage: edge2bin IN.txt OUT.bin [--num_vertices N]\n"
               "       edge2bin --turnstile IN.txt OUT.bin [--num_vertices N]\n"
               "         (turnstile text: one `+ u v` or `- u v` per line)\n"
               "       edge2bin --to-text IN.bin OUT.txt\n"
               "         (auto-detects the v1 edge vs v2 turnstile format)\n";
  return 2;
}

bool ParseVertex(const std::string& token, std::uint64_t* out) {
  if (token.empty() || token[0] == '-') return false;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out, 10);
  return ec == std::errc() && ptr == token.data() + token.size();
}

// Recognizes the header comment SaveEdgeListText (or --to-text) writes,
// "<prefix>N vertices, ...", and extracts N.
bool ParseHeaderComment(const std::string& line, std::string_view prefix,
                        std::uint64_t* n) {
  if (line.rfind(prefix, 0) != 0) return false;
  const std::size_t start = prefix.size();
  const std::size_t end = line.find(' ', start);
  if (end == std::string::npos ||
      line.compare(end, 9, " vertices") != 0) {
    return false;
  }
  return ParseVertex(line.substr(start, end - start), n);
}

// Converts text to a v1 edge stream or (turnstile) a v2 turnstile stream.
// Records stream through the CRC into an atomic writer, so inputs of any
// size convert without being held in memory; the header is patched in
// once the count and CRC are known, and a malformed input leaves a file
// already at `out_path` untouched.
int TextToBin(const std::string& in_path, const std::string& out_path,
              std::int64_t num_vertices_flag, bool turnstile) {
  auto fail = [](const std::string& message) {
    std::cerr << "error: " << message << "\n";
    return 1;
  };
  std::ifstream in(in_path);
  if (!in) return fail("cannot open " + in_path);
  io::AtomicFileWriter out;
  std::string error;
  // Header placeholder; patched once the CRC and counts are known.
  if (!out.Open(out_path, &error) ||
      !out.Append(std::string(kStreamHeaderSize, '\0'), &error)) {
    return fail(error);
  }
  const std::string_view comment_prefix =
      turnstile ? "# cyclestream turnstile stream: "
                : "# cyclestream edge list: ";
  const std::size_t record_size =
      turnstile ? kTurnstileRecordSize : sizeof(Edge);
  constexpr std::size_t kFlushBytes = std::size_t{1} << 19;

  Crc32Accumulator crc;
  std::string buffer;
  buffer.reserve(kFlushBytes + kTurnstileRecordSize);
  auto flush = [&] {
    crc.Update(buffer.data(), buffer.size());
    const bool ok = out.Append(buffer, &error);
    buffer.clear();
    return ok;
  };

  std::uint64_t header_vertices = 0;
  bool have_header_vertices = false;
  std::uint64_t count = 0;
  std::uint64_t max_id = 0;
  std::uint64_t swapped = 0;
  std::string line;
  std::size_t lineno = 0;
  auto where = [&] { return in_path + ":" + std::to_string(lineno); };
  while (std::getline(in, line)) {
    ++lineno;
    if (!have_header_vertices && count == 0 &&
        ParseHeaderComment(line, comment_prefix, &header_vertices)) {
      have_header_vertices = true;
    }
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string top, ta, tb;
    if (!(ls >> (turnstile ? top : ta))) continue;  // Blank or comment.
    if (turnstile && top != "+" && top != "-") {
      return fail(where() +
                  ": turnstile lines start with + (insert) or - (delete)");
    }
    std::uint64_t a = 0, b = 0;
    if (turnstile) ls >> ta;
    if (!(ls >> tb) || !ParseVertex(ta, &a) || !ParseVertex(tb, &b)) {
      return fail(where() + ": malformed line");
    }
    if (a == b) {
      return fail(where() + ": self-loop " + std::to_string(a) +
                  " (the binary stream format cannot represent it)");
    }
    if (a > b) {
      std::swap(a, b);
      ++swapped;
    }
    if (b > 0xffffffffull) {
      return fail(where() + ": vertex id " + std::to_string(b) +
                  " exceeds 32 bits");
    }
    max_id = std::max(max_id, b);
    const Edge edge(static_cast<VertexId>(a), static_cast<VertexId>(b));
    char rec[kTurnstileRecordSize];
    if (turnstile) {
      EncodeTurnstileRecord(
          {edge, top == "+" ? TurnstileOp::kInsert : TurnstileOp::kDelete},
          rec);
    } else {
      std::memcpy(rec, &edge, sizeof(Edge));
    }
    buffer.append(rec, record_size);
    ++count;
    if (buffer.size() >= kFlushBytes && !flush()) return fail(error);
  }
  if (in.bad()) {
    return fail(in_path + ": read error after line " + std::to_string(lineno));
  }

  std::uint64_t num_vertices = count > 0 ? max_id + 1 : 0;
  if (num_vertices_flag > 0) {
    num_vertices = static_cast<std::uint64_t>(num_vertices_flag);
  } else if (have_header_vertices) {
    num_vertices = header_vertices;
  }
  if (num_vertices > 0xffffffffull) {
    return fail("vertex count " + std::to_string(num_vertices) +
                " exceeds 32 bits");
  }
  if (count > 0 && max_id >= num_vertices) {
    return fail("vertex id " + std::to_string(max_id) +
                " out of range for num_vertices=" +
                std::to_string(num_vertices));
  }
  if (swapped > 0) {
    std::cerr << "warning: " << in_path << ": canonicalized " << swapped
              << " reversed edge" << (swapped == 1 ? "" : "s") << "\n";
  }
  const std::uint32_t version =
      turnstile ? kBinaryTurnstileVersion : kBinaryEdgeVersion;
  if (!flush() ||
      !out.WriteAt(0,
                   EncodeStreamHeader(version,
                                      static_cast<std::uint32_t>(num_vertices),
                                      count, crc.Final()),
                   &error) ||
      !out.Commit(&error)) {
    return fail(error);
  }
  std::cerr << "wrote " << out_path << ": n=" << num_vertices
            << (turnstile ? " updates=" : " m=") << count
            << (turnstile ? " (turnstile v2)" : "") << "\n";
  return 0;
}

int TurnstileBinToText(const std::string& in_path,
                       const std::string& out_path) {
  TurnstileBinaryReader reader;
  // Pass-through tool: any well-formed v2 file must convert, including
  // streams with unmatched deletes that the strict query-path ingest would
  // reject.
  reader.set_strict(false);
  std::string error;
  if (!reader.Open(in_path, &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot open " << out_path << " for writing\n";
    return 1;
  }
  out << "# cyclestream turnstile stream: " << reader.num_vertices()
      << " vertices, " << reader.num_updates() << " updates\n";
  for (const TurnstileUpdate& u : reader.stream()) {
    out << (u.op == TurnstileOp::kInsert ? '+' : '-') << ' ' << u.edge.u
        << ' ' << u.edge.v << '\n';
  }
  out.flush();
  if (!out) {
    std::cerr << "error: write failed: " << out_path << "\n";
    return 1;
  }
  std::cerr << "wrote " << out_path << ": n=" << reader.num_vertices()
            << " updates=" << reader.num_updates() << "\n";
  return 0;
}

int BinToText(const std::string& in_path, const std::string& out_path) {
  BinaryEdgeReader reader;
  std::string error;
  if (!reader.Open(in_path, &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot open " << out_path << " for writing\n";
    return 1;
  }
  // Same shape as SaveEdgeListText, so bin -> text of a converted
  // generator file diffs clean against the original.
  out << "# cyclestream edge list: " << reader.num_vertices() << " vertices, "
      << reader.num_edges() << " edges\n";
  const Edge* edges = reader.edges();
  for (std::size_t i = 0; i < reader.num_edges(); ++i) {
    out << edges[i].u << ' ' << edges[i].v << '\n';
  }
  out.flush();
  if (!out) {
    std::cerr << "error: write failed: " << out_path << "\n";
    return 1;
  }
  std::cerr << "wrote " << out_path << ": n=" << reader.num_vertices()
            << " m=" << reader.num_edges() << "\n";
  return 0;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  // FlagParser's `--flag value` syntax makes a bare `--to-text IN.bin`
  // swallow the input path as the flag value; reconstruct the positionals
  // so both `--to-text IN OUT` and `--to-text=1 IN OUT` work.
  const std::string to_text_value = flags.GetString("to-text", "");
  const bool to_text = !to_text_value.empty();
  const std::string turnstile_value = flags.GetString("turnstile", "");
  const bool turnstile = !turnstile_value.empty();
  std::vector<std::string> paths;
  if (to_text && to_text_value != "true" && to_text_value != "1") {
    paths.push_back(to_text_value);  // The swallowed input path.
  }
  if (turnstile && turnstile_value != "true" && turnstile_value != "1") {
    paths.push_back(turnstile_value);  // Likewise for a bare --turnstile.
  }
  paths.insert(paths.end(), flags.positional().begin(),
               flags.positional().end());
  if (paths.size() != 2) return Usage();
  if (to_text) {
    // The magic byte picks the decoder, so `--to-text` inverts whichever
    // emit mode produced the file.
    if (SniffBinaryFormatVersion(paths[0]) == kBinaryTurnstileVersion) {
      return TurnstileBinToText(paths[0], paths[1]);
    }
    return BinToText(paths[0], paths[1]);
  }
  return TextToBin(paths[0], paths[1], flags.GetInt("num_vertices", 0),
                   turnstile);
}

}  // namespace
}  // namespace cyclestream

int main(int argc, char** argv) { return cyclestream::Main(argc, argv); }
