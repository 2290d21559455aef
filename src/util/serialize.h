#ifndef CYCLESTREAM_UTIL_SERIALIZE_H_
#define CYCLESTREAM_UTIL_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_set>
#include <vector>

namespace cyclestream {

/// Binary state codec used by the checkpoint subsystem (see
/// stream/checkpoint.h for the snapshot container format and DESIGN.md §10
/// for the wire layout). Lives in util so the hash and sketch layers can
/// serialize themselves without depending on the stream library.

/// Append-only little-endian encoder for algorithm state blobs.
class StateWriter {
 public:
  void U8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(std::uint32_t v) { AppendLE(v, 4); }
  void U64(std::uint64_t v) { AppendLE(v, 8); }
  void I64(std::int64_t v) { AppendLE(static_cast<std::uint64_t>(v), 8); }
  void Size(std::size_t v) { U64(static_cast<std::uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Double(double v);
  void Str(std::string_view s) {
    Size(s.size());
    buf_.append(s.data(), s.size());
  }
  void Bytes(const void* data, std::size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  /// Vectors of trivially-copyable scalars (counters, signs, flat tables).
  template <typename T>
  void Vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Size(v.size());
    if (!v.empty()) Bytes(v.data(), v.size() * sizeof(T));
  }
  void VecBool(const std::vector<bool>& v) {
    Size(v.size());
    for (bool b : v) U8(b ? 1 : 0);
  }

  /// Makes room for `n` more bytes, so a writer that knows its encoded
  /// size appends it without reallocating.
  void Reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  const std::string& str() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  void AppendLE(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  std::string buf_;
};

/// Bounded decoder. Every read is range-checked; on the first failure the
/// reader latches a fail state and all further reads return zero values, so
/// RestoreState implementations can read an entire section and check ok()
/// once. A successful restore additionally requires AtEnd().
class StateReader {
 public:
  explicit StateReader(std::string_view data) : data_(data) {}

  std::uint8_t U8() { return static_cast<std::uint8_t>(TakeLE(1)); }
  std::uint32_t U32() { return static_cast<std::uint32_t>(TakeLE(4)); }
  std::uint64_t U64() { return TakeLE(8); }
  std::int64_t I64() { return static_cast<std::int64_t>(TakeLE(8)); }
  std::size_t Size() { return static_cast<std::size_t>(U64()); }
  bool Bool() { return U8() != 0; }
  double Double();
  std::string Str();

  /// Bounded trivially-copyable vector read. `max_bytes` caps the
  /// allocation a corrupt length field can trigger.
  template <typename T>
  bool Vec(std::vector<T>* out, std::size_t max_bytes = kDefaultMaxBytes) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t n = Size();
    if (!ok_ || n > max_bytes / sizeof(T) || n * sizeof(T) > Remaining()) {
      return Fail();
    }
    out->resize(n);
    if (n > 0) CopyOut(out->data(), n * sizeof(T));
    return ok_;
  }
  /// Zero-copy view of the next `n` raw bytes (the read side of
  /// StateWriter::Bytes); empty, with the fail state latched, if fewer
  /// remain.
  std::string_view Bytes(std::size_t n) {
    if (!ok_ || n > Remaining()) {
      Fail();
      return {};
    }
    const std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }
  bool VecBool(std::vector<bool>* out,
               std::size_t max_elems = kDefaultMaxBytes) {
    const std::size_t n = Size();
    if (!ok_ || n > max_elems || n > Remaining()) return Fail();
    out->assign(n, false);
    for (std::size_t i = 0; i < n; ++i) (*out)[i] = U8() != 0;
    return ok_;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  std::size_t Remaining() const { return data_.size() - pos_; }
  /// Latches the fail state (for semantic validation failures discovered by
  /// the caller, e.g. a config-fingerprint mismatch).
  bool Fail() {
    ok_ = false;
    return false;
  }

  static constexpr std::size_t kDefaultMaxBytes = std::size_t{1} << 33;

 private:
  std::uint64_t TakeLE(int bytes) {
    if (!ok_ || Remaining() < static_cast<std::size_t>(bytes)) {
      Fail();
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += static_cast<std::size_t>(bytes);
    return v;
  }
  void CopyOut(void* dst, std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Unordered-container helpers
// ---------------------------------------------------------------------------
//
// Unordered containers are serialized as (bucket_count, size, elements in
// iteration order) and restored by rehashing to the recorded bucket count
// and inserting in *reverse* iteration order. With libstdc++'s singly-linked
// bucket layout this reproduces the exact iteration order of the saved
// container, which matters wherever floating-point accumulation follows map
// iteration (see DESIGN.md §10). Content-equal restore would suffice for
// lookup correctness, but bit-identical resume needs order too.

template <typename Set, typename WriteElem>
void WriteUnordered(StateWriter& w, const Set& s, WriteElem write_elem) {
  w.Size(s.bucket_count());
  w.Size(s.size());
  for (const auto& e : s) write_elem(w, e);
}

template <typename Elem, typename Insert>
bool ReadUnordered(StateReader& r, std::size_t* bucket_count_out,
                   std::vector<Elem>* elems, Insert insert) {
  const std::size_t buckets = r.Size();
  const std::size_t n = r.Size();
  if (!r.ok() || n > r.Remaining()) return r.Fail();
  elems->clear();
  elems->reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    elems->push_back(insert(r));
    if (!r.ok()) return false;
  }
  *bucket_count_out = buckets;
  return true;
}

/// Rehashes `c` to `buckets` (only when it differs — rehash with the
/// current count is not guaranteed to be a no-op) and inserts `elems` back
/// to front, reproducing the saved iteration order under libstdc++.
template <typename Container, typename Elems, typename InsertOne>
void RestoreUnorderedOrder(Container& c, std::size_t buckets,
                           const Elems& elems, InsertOne insert_one) {
  c.clear();
  if (c.bucket_count() != buckets) c.rehash(buckets);
  for (auto it = elems.rbegin(); it != elems.rend(); ++it) insert_one(c, *it);
}

/// Convenience: unordered_set of uint64 keys.
template <typename Hash>
void WriteU64Set(StateWriter& w,
                 const std::unordered_set<std::uint64_t, Hash>& s) {
  WriteUnordered(w, s, [](StateWriter& sw, std::uint64_t k) { sw.U64(k); });
}
template <typename Hash>
bool ReadU64Set(StateReader& r, std::unordered_set<std::uint64_t, Hash>* s) {
  std::size_t buckets = 0;
  std::vector<std::uint64_t> elems;
  if (!ReadUnordered(r, &buckets, &elems,
                     [](StateReader& sr) { return sr.U64(); })) {
    return false;
  }
  RestoreUnorderedOrder(*s, buckets, elems,
                        [](auto& c, std::uint64_t k) { c.insert(k); });
  return true;
}

}  // namespace cyclestream

#endif  // CYCLESTREAM_UTIL_SERIALIZE_H_
