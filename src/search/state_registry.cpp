#include "search/state_registry.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "util/fault.hpp"
#include "util/hash.hpp"

namespace evord::search {

// ---------------------------------------------------------------------------
// PackedStateLayout
// ---------------------------------------------------------------------------

PackedStateLayout::PackedStateLayout(const Trace& trace) {
  std::uint32_t off = 0;
  positions_.reserve(trace.num_processes());
  for (ProcId p = 0; p < trace.num_processes(); ++p) {
    const auto len = trace.program_order(p).size();
    // positions range over [0, len]: ceil(log2(len + 1)) bits.
    const auto width = static_cast<std::uint32_t>(std::bit_width(len));
    positions_.push_back(Field{off, width});
    off += width;
  }
  posted_offset_.reserve(trace.event_vars().size());
  for (std::size_t v = 0; v < trace.event_vars().size(); ++v) {
    posted_offset_.push_back(off++);
  }
  std::size_t num_binary = 0;
  binary_offset_.reserve(trace.semaphores().size());
  for (const SemaphoreInfo& s : trace.semaphores()) {
    if (s.binary) {
      binary_offset_.push_back(off++);
      ++num_binary;
    } else {
      binary_offset_.push_back(kNoBit);
    }
  }
  key_bits_ = off;
  num_words_ = std::max<std::size_t>(1, (key_bits_ + 63) / 64);
  legacy_pos_words_ = (trace.num_processes() + 3) / 4;
  legacy_posted_words_ = (trace.event_vars().size() + 63) / 64;
  legacy_bin_words_ = num_binary == 0 ? 0 : (num_binary + 63) / 64;
}

void PackedStateLayout::encode(const std::vector<std::uint32_t>& positions,
                               const DynamicBitset& posted,
                               const std::vector<int>& counts,
                               const std::vector<bool>& binary,
                               std::vector<std::uint64_t>& words) const {
  words.assign(num_words_, 0);
  for (ProcId p = 0; p < positions_.size(); ++p) {
    set_position(words.data(), p, positions[p]);
  }
  for (std::size_t v = 0; v < posted_offset_.size(); ++v) {
    if (posted.test(v)) toggle_bit(words.data(), posted_offset_[v]);
  }
  for (std::size_t s = 0; s < binary_offset_.size(); ++s) {
    if (binary[s] && (counts[s] & 1) != 0) {
      toggle_bit(words.data(), binary_offset_[s]);
    }
  }
}

void PackedStateLayout::to_legacy_key(const std::uint64_t* words,
                                      std::vector<std::uint64_t>& out) const {
  out.assign(legacy_key_words(), 0);
  for (ProcId p = 0; p < positions_.size(); ++p) {
    const std::uint64_t pos = position(words, p);
    out[p / 4] |= pos << (16 * (p % 4));
  }
  for (std::size_t v = 0; v < posted_offset_.size(); ++v) {
    if (test_bit(words, posted_offset_[v])) {
      out[legacy_pos_words_ + v / 64] |= std::uint64_t{1} << (v % 64);
    }
  }
  std::size_t k = 0;
  for (std::size_t s = 0; s < binary_offset_.size(); ++s) {
    if (binary_offset_[s] == kNoBit) continue;
    if (test_bit(words, binary_offset_[s])) {
      out[legacy_pos_words_ + legacy_posted_words_ + k / 64] |=
          std::uint64_t{1} << (k % 64);
    }
    ++k;
  }
}

// ---------------------------------------------------------------------------
// transpose64
// ---------------------------------------------------------------------------

void transpose64(std::uint64_t m[64]) noexcept {
  // Recursive block swap (Hacker's Delight 7-3), LSB-first convention:
  // bit j of m[i] is M[i][j].
  std::uint64_t mask = 0x00000000ffffffffull;
  for (std::uint32_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (std::uint32_t k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k + j]) & mask;
      m[k] ^= t << j;
      m[k + j] ^= t;
    }
  }
}

// ---------------------------------------------------------------------------
// ConstBitRow
// ---------------------------------------------------------------------------

std::size_t ConstBitRow::count() const noexcept {
  std::size_t n = 0;
  for (std::size_t w = 0; w < word_count(); ++w) {
    n += static_cast<std::size_t>(std::popcount(words_[w]));
  }
  return n;
}

std::uint64_t ConstBitRow::hash_words(std::uint64_t seed) const noexcept {
  for (std::size_t w = 0; w < word_count(); ++w) {
    seed ^= words_[w];
    seed *= 1099511628211ull;  // FNV prime
  }
  return seed;
}

bool ConstBitRow::intersects(const ConstBitRow& o) const noexcept {
  const std::size_t n = std::min(word_count(), o.word_count());
  for (std::size_t w = 0; w < n; ++w) {
    if ((words_[w] & o.words_[w]) != 0) return true;
  }
  return false;
}

void ConstBitRow::to_bitset(DynamicBitset& out) const {
  out.resize(bits_);
  for (std::size_t w = 0; w < word_count(); ++w) out.word(w) = words_[w];
}

void ConstBitRow::append_words(std::vector<std::uint64_t>& out) const {
  out.insert(out.end(), words_, words_ + word_count());
}

// ---------------------------------------------------------------------------
// PackedStateRegistry
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint64_t kSpillFloorBytes = 4096;  ///< don't spill near-empty
// A slot's low 4 bits hold its displacement + 1, so 0 marks an empty
// slot and no entry may sit more than kMaxDisp slots past its home.
constexpr std::uint64_t kMetaMask = 15;
constexpr std::uint32_t kMaxDisp = 14;

std::uint64_t mask_bits(std::uint32_t bits) noexcept {
  return bits >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << bits) - 1);
}

// Slot i of a `width`-bit table occupies bits [i*width, (i+1)*width).
// The table carries one pad word, so the second word always exists, and
// the split shifts `(x << 1) << (63 - bo)` stay below 64 when bo == 0.
std::uint64_t read_slot(const std::uint64_t* t, std::uint64_t i,
                        std::uint32_t width) noexcept {
  const std::uint64_t bit = i * width;
  const std::uint64_t* w = t + (bit >> 6);
  const std::uint32_t bo = static_cast<std::uint32_t>(bit & 63u);
  return ((w[0] >> bo) | ((w[1] << 1) << (63 - bo))) & mask_bits(width);
}

void write_slot(std::uint64_t* t, std::uint64_t i, std::uint32_t width,
                std::uint64_t slot) noexcept {
  const std::uint64_t bit = i * width;
  std::uint64_t* w = t + (bit >> 6);
  const std::uint32_t bo = static_cast<std::uint32_t>(bit & 63u);
  const std::uint64_t mask = mask_bits(width);
  w[0] = (w[0] & ~(mask << bo)) | (slot << bo);
  w[1] = (w[1] & ~((mask >> 1) >> (63 - bo))) | ((slot >> 1) >> (63 - bo));
}

}  // namespace

PackedStateRegistry::PackedStateRegistry(Config config)
    : verify_(config.verify_collisions),
      exact_keys_(config.exact_keys),
      synchronized_(config.synchronized),
      spill_(config.spill) {
  key_bits_ = std::clamp<std::uint32_t>(config.key_bits, 1, 64);
  value_bits_ = config.value_bits;
  EVORD_CHECK(value_bits_ <= 1, "registry supports at most one value bit");
  std::size_t n = std::bit_ceil(std::max<std::size_t>(1, config.num_shards));
  auto sb = static_cast<std::uint32_t>(std::countr_zero(n));
  if (sb > key_bits_) {
    sb = key_bits_;
    n = std::size_t{1} << sb;
  }
  shard_bits_ = sb;
  quotient_bits_ = key_bits_ - shard_bits_;
  // Slots must fit one 64-bit read: remainder + value + 4 meta bits.
  const std::uint32_t wide = quotient_bits_ + value_bits_ + 4;
  min_home_bits_ = wide > 64 ? wide - 64 : 0;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PackedStateRegistry::~PackedStateRegistry() {
  for (const auto& [addr, len] : spill_maps_) munmap(addr, len);
  if (spill_fd_ >= 0) close(spill_fd_);
}

void PackedStateRegistry::set_accountant(MemoryAccountant* accountant) noexcept {
  if (accountant_ == accountant) return;
  const std::uint64_t held = charged_.load(std::memory_order_relaxed);
  if (accountant_ != nullptr) accountant_->release(held);
  accountant_ = accountant;
  if (accountant_ != nullptr) accountant_->charge(held);
}

std::uint64_t PackedStateRegistry::mix(std::uint64_t key) const noexcept {
  if (key_bits_ >= 64) return splitmix64(key);
  // Invertible mix within key_bits: odd multiplications mod 2^bits and
  // xorshifts are bijections, so distinct keys stay distinct and the
  // full key is recoverable from shard + home + remainder bits.
  const std::uint64_t mask = mask_bits(key_bits_);
  const std::uint32_t h = (key_bits_ + 1) / 2;
  std::uint64_t x = key & mask;
  x ^= x >> h;
  x = (x * 0x9e3779b97f4a7c15ull) & mask;
  x ^= x >> h;
  x = (x * 0xbf58476d1ce4e5b9ull) & mask;
  x ^= x >> h;
  return x;
}

PackedStateRegistry::Probe PackedStateRegistry::probe(
    const Shard& s, std::uint64_t v) const noexcept {
  if (s.table.empty()) return {};
  // home_bits >= 1 unless quotient_bits_ == 0, so the shift is < 64.
  const std::uint32_t rb = quotient_bits_ - s.home_bits;
  const std::uint32_t width = slot_width(s.home_bits);
  const std::uint64_t cmask = mask_bits(s.home_bits);
  const std::uint64_t home = v >> rb;
  const std::uint64_t rem = v & mask_bits(rb);
  // Runs are sorted by (home, remainder): the key is absent once a slot
  // is empty, belongs to a later home (smaller displacement), or holds
  // a larger remainder of the same home.
  for (std::uint32_t d = 0; d <= kMaxDisp; ++d) {
    const std::uint64_t pos = (home + d) & cmask;
    const std::uint64_t e = read_slot(s.table.data(), pos, width);
    const std::uint64_t meta = e & kMetaMask;
    if (meta < d + 1) return {pos, d, false, 0};
    if (meta == d + 1) {
      const std::uint64_t er = e >> (4 + value_bits_);
      if (er == rem) return {pos, d, true, e};
      if (er > rem) return {pos, d, false, 0};
    }
  }
  return {0, kMaxDisp + 1, false, 0};
}

bool PackedStateRegistry::shift_in(Shard& s, const Probe& p,
                                   std::uint64_t slot) noexcept {
  if (p.disp > kMaxDisp) return false;
  const std::uint32_t width = slot_width(s.home_bits);
  const std::uint64_t cmask = mask_bits(s.home_bits);
  std::uint64_t* t = s.table.data();
  // Carry each entry of the run one slot right (displacement + 1) until
  // an empty slot takes the last one; the table always keeps one empty
  // slot below its largest size, where every key owns its home slot.
  std::uint64_t carry = slot | (p.disp + 1);
  std::uint64_t i = p.pos;
  for (;; i = (i + 1) & cmask) {
    const std::uint64_t e = read_slot(t, i, width);
    if ((e & kMetaMask) == kMetaMask) break;  // displacement overflow
    write_slot(t, i, width, carry);
    if ((e & kMetaMask) == 0) return true;
    carry = e + 1;
  }
  // Undo: move the carried entries back one slot left.
  for (std::uint64_t j = i; j != p.pos;) {
    j = (j - 1) & cmask;
    const std::uint64_t moved = read_slot(t, j, width);
    write_slot(t, j, width, carry - 1);
    carry = moved;
  }
  return false;
}

void PackedStateRegistry::place(Shard& s, std::uint64_t v,
                                std::uint64_t value, Probe p) {
  const std::uint64_t slots = std::uint64_t{1} << s.home_bits;
  bool grow_now = s.table.empty() || (s.home_bits < quotient_bits_ &&
                                      (s.resident_count + 1) * 8 > slots * 7);
  // A doubling transiently triples this shard's footprint.  Near the
  // budget it is skipped while an empty slot remains (probe runs grow,
  // results are unaffected).  When the table is full or a displacement
  // overflows, the doubling would cross the budget: it trips the
  // accountant instead, as an injected store failure does, and the key
  // stays out (the caller treats it as new; the search stops with
  // StopReason::kMemory at its next poll).  Spill mode still doubles,
  // since its sweep relieves the budget.
  const auto capped = [&] {
    return !s.table.empty() && accountant_ != nullptr &&
           accountant_->limit() != 0 &&
           accountant_->bytes() + s.resident_bytes >= accountant_->limit();
  };
  if (grow_now && s.resident_count + 1 < slots && capped()) {
    grow_now = false;
  }
  for (;; grow_now = true) {
    if (grow_now) {
      if (!spill_ && capped()) {
        accountant_->exhaust();
        return;
      }
      grow(s, s.table.empty()
                  ? std::max(min_home_bits_, std::min(1u, quotient_bits_))
                  : s.home_bits + 1);
      p = probe(s, v);
    }
    const std::uint64_t rem = v & mask_bits(quotient_bits_ - s.home_bits);
    if (shift_in(s, p, (rem << (4 + value_bits_)) | (value << 4))) break;
  }
  ++s.count;
  ++s.resident_count;
}

bool PackedStateRegistry::rebuild(const Shard& s,
                                  std::vector<std::uint64_t>& table,
                                  std::uint32_t home_bits) const noexcept {
  const std::uint32_t k = home_bits - s.home_bits;
  const std::uint32_t rb = quotient_bits_ - home_bits;
  const std::uint32_t old_w = slot_width(s.home_bits);
  const std::uint32_t new_w = slot_width(home_bits);
  const std::uint64_t old_mask = mask_bits(s.home_bits);
  const std::uint64_t new_mask = mask_bits(home_bits);
  const std::uint64_t* t = s.table.data();
  // Walk the old table once, from just past an empty slot: entries come
  // out sorted by (home, remainder), and a new home is the old one
  // extended by the remainder's top k bits, so each entry lands at
  // max(new home, previous slot + 1).  Positions are kept relative to
  // the walk's first home, so runs may wrap past the last slot.
  std::uint64_t start = 0;
  while ((read_slot(t, start, old_w) & kMetaMask) != 0) ++start;
  const std::uint64_t base = ((start + 1) & old_mask) << k;
  std::uint64_t next = 0;
  for (std::uint64_t j = 1; j <= old_mask + 1; ++j) {
    const std::uint64_t i = (start + j) & old_mask;
    const std::uint64_t e = read_slot(t, i, old_w);
    const std::uint64_t meta = e & kMetaMask;
    if (meta == 0) continue;
    const std::uint64_t home = (i - (meta - 1)) & old_mask;
    const std::uint64_t rem = e >> (4 + value_bits_);
    const std::uint64_t new_home =
        (((home << k) | (rem >> rb)) - base) & new_mask;
    const std::uint64_t at = std::max(new_home, next);
    if (at - new_home > kMaxDisp || at > new_mask) return false;
    write_slot(table.data(), (base + at) & new_mask, new_w,
               ((rem & mask_bits(rb)) << (4 + value_bits_)) |
                   (e & (mask_bits(value_bits_) << 4)) |
                   (at - new_home + 1));
    next = at + 1;
  }
  return true;
}

void PackedStateRegistry::grow(Shard& s, std::uint32_t home_bits) {
  for (;; ++home_bits) {
    EVORD_DCHECK(home_bits <= quotient_bits_, "slot table cannot grow");
    const std::uint64_t bits = std::uint64_t{slot_width(home_bits)}
                               << home_bits;
    std::vector<std::uint64_t> table((bits + 63) / 64 + 1, 0);  // + pad
    if (s.table.empty() || rebuild(s, table, home_bits)) {
      s.table = std::move(table);
      s.home_bits = home_bits;
      break;
    }
  }
  recount_shard_bytes(s);
}

void PackedStateRegistry::recount_shard_bytes(Shard& s) noexcept {
  const std::uint64_t now = s.table.capacity() * 8;
  if (now >= s.resident_bytes) {
    const std::uint64_t d = now - s.resident_bytes;
    charged_.fetch_add(d, std::memory_order_relaxed);
    if (accountant_ != nullptr) accountant_->charge(d);
  } else {
    const std::uint64_t d = s.resident_bytes - now;
    charged_.fetch_sub(d, std::memory_order_relaxed);
    if (accountant_ != nullptr) accountant_->release(d);
  }
  s.resident_bytes = now;
}

void PackedStateRegistry::check_payload(
    Shard& s, std::uint64_t key, bool /*first_insert*/,
    const std::vector<std::uint64_t>* payload) {
  if (!verify_ || payload == nullptr) return;
  const auto [it, inserted] = s.payloads.try_emplace(key, *payload);
  if (inserted) {
    const std::uint64_t d = payload->size() * sizeof(std::uint64_t);
    charged_.fetch_add(d, std::memory_order_relaxed);
    payload_bytes_.fetch_add(d, std::memory_order_relaxed);
    if (accountant_ != nullptr) accountant_->charge(d);
  } else {
    EVORD_CHECK(it->second == *payload,
                "64-bit fingerprint collision: distinct payloads hash to "
                    << key);
  }
}

bool PackedStateRegistry::find_in_runs(const Shard& s, std::uint64_t mixed,
                                       bool* value) const noexcept {
  for (const SpillRun& r : s.runs) {
    const std::uint64_t* end = r.keys + r.count;
    const std::uint64_t* it = std::lower_bound(r.keys, end, mixed);
    if (it != end && *it == mixed) {
      if (value != nullptr && r.values != nullptr) {
        const std::uint64_t idx = static_cast<std::uint64_t>(it - r.keys);
        *value = ((r.values[idx >> 6] >> (idx & 63u)) & 1u) != 0;
      }
      return true;
    }
  }
  return false;
}

bool PackedStateRegistry::insert(std::uint64_t key,
                                 const std::vector<std::uint64_t>* payload) {
  EVORD_DCHECK(value_bits_ == 0, "insert() is for membership stores");
  return put(key, 0, payload);
}

bool PackedStateRegistry::store(std::uint64_t key, bool value,
                                const std::vector<std::uint64_t>* payload) {
  EVORD_DCHECK(value_bits_ == 1, "store() requires a value bit");
  return put(key, value ? 1 : 0, payload);
}

bool PackedStateRegistry::put(std::uint64_t key, std::uint64_t value,
                              const std::vector<std::uint64_t>* payload) {
  if (fault::enabled() && fault::on_store_insert() && accountant_ != nullptr) {
    // Injected insertion failure: the store refuses to grow, surfaced
    // through the governed memory path (StopReason::kMemory).
    accountant_->exhaust();
  }
  EVORD_DCHECK(key_bits_ >= 64 || (key >> key_bits_) == 0,
               "key wider than the registry's key_bits");
  const std::uint64_t mixed = mix(key);
  Shard& s = *shards_[mixed & mask_bits(shard_bits_)];
  bool inserted = false;
  {
    std::unique_lock<std::mutex> lock(s.mu, std::defer_lock);
    if (synchronized_) lock.lock();
    bool spilled_value = false;
    if (find_in_runs(s, mixed, &spilled_value)) {
      EVORD_CHECK(spilled_value == (value != 0),
                  "memoized value mismatch for fingerprint " << key);
    } else {
      const Probe p = probe(s, mixed >> shard_bits_);
      if (p.found) {
        EVORD_CHECK(((p.slot >> 4) & mask_bits(value_bits_)) == value,
                    "memoized value mismatch for fingerprint " << key);
      } else {
        place(s, mixed >> shard_bits_, value, p);
        inserted = true;
      }
    }
    check_payload(s, key, inserted, payload);
  }
  if (spill_) maybe_spill();
  return inserted;
}

bool PackedStateRegistry::lookup(std::uint64_t key, bool* value,
                                 const std::vector<std::uint64_t>* payload) {
  EVORD_DCHECK(value_bits_ == 1, "lookup() requires a value bit");
  const std::uint64_t mixed = mix(key);
  Shard& s = *shards_[mixed & mask_bits(shard_bits_)];
  std::unique_lock<std::mutex> lock(s.mu, std::defer_lock);
  if (synchronized_) lock.lock();
  bool spilled_value = false;
  if (find_in_runs(s, mixed, &spilled_value)) {
    *value = spilled_value;
    check_payload(s, key, false, payload);
    return true;
  }
  const Probe p = probe(s, mixed >> shard_bits_);
  if (!p.found) return false;
  *value = ((p.slot >> 4) & 1u) != 0;
  check_payload(s, key, false, payload);
  return true;
}

std::uint64_t PackedStateRegistry::size() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu, std::defer_lock);
    if (synchronized_) lock.lock();
    total += shard->count;
  }
  return total;
}

std::vector<std::uint64_t> PackedStateRegistry::shard_sizes() const {
  std::vector<std::uint64_t> sizes;
  sizes.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mu, std::defer_lock);
    if (synchronized_) lock.lock();
    sizes.push_back(shard->count);
  }
  return sizes;
}

// ----- spill tier ----------------------------------------------------------

const std::uint64_t* PackedStateRegistry::spill_append(
    const std::vector<std::uint64_t>& words) {
  if (spill_fd_ < 0) {
    const char* dir = std::getenv("TMPDIR");
    if (dir == nullptr || *dir == '\0') dir = "/tmp";
    std::string path = std::string(dir) + "/evord-spill-XXXXXX";
    std::vector<char> buf(path.begin(), path.end());
    buf.push_back('\0');
    spill_fd_ = mkstemp(buf.data());
    EVORD_CHECK(spill_fd_ >= 0, "spill tier: cannot create temp file");
    unlink(buf.data());  // anonymous: the file dies with the store
  }
  const std::uint64_t off = spill_file_bytes_;
  const std::size_t nbytes = words.size() * 8;
  const char* p = reinterpret_cast<const char*>(words.data());
  std::size_t left = nbytes;
  std::uint64_t o = off;
  while (left > 0) {
    const ssize_t k = pwrite(spill_fd_, p, left, static_cast<off_t>(o));
    EVORD_CHECK(k > 0, "spill tier: write failed");
    p += k;
    o += static_cast<std::uint64_t>(k);
    left -= static_cast<std::size_t>(k);
  }
  // Keep every run page-aligned so it can be mapped independently.
  spill_file_bytes_ = (off + nbytes + 4095) & ~std::uint64_t{4095};
  void* m = mmap(nullptr, nbytes, PROT_READ, MAP_SHARED, spill_fd_,
                 static_cast<off_t>(off));
  EVORD_CHECK(m != MAP_FAILED, "spill tier: mmap failed");
  spill_maps_.emplace_back(m, nbytes);
  return static_cast<const std::uint64_t*>(m);
}

void PackedStateRegistry::maybe_spill() {
  if (accountant_ == nullptr) return;
  const std::uint64_t limit = accountant_->limit();
  if (limit == 0) return;
  const std::uint64_t watermark = limit - limit / 10;  // ~90%
  if (accountant_->bytes() < watermark) return;
  if (charged_.load(std::memory_order_relaxed) < kSpillFloorBytes) {
    // This store holds almost nothing resident; spilling it cannot
    // relieve the budget (another consumer owns the bytes).
    return;
  }
  std::lock_guard<std::mutex> spill_lock(spill_mu_);
  if (accountant_->bytes() < watermark) return;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    std::unique_lock<std::mutex> lock(s.mu, std::defer_lock);
    if (synchronized_) lock.lock();
    if (s.resident_count == 0) continue;
    const std::uint32_t width = slot_width(s.home_bits);
    const std::uint32_t rb = quotient_bits_ - s.home_bits;
    // Reconstruct the full mixed keys (the mix is invertible, so these
    // are exact) and freeze them as one sorted run.
    std::vector<std::pair<std::uint64_t, std::uint8_t>> entries;
    entries.reserve(s.resident_count);
    for (std::uint64_t j = 0; j <= mask_bits(s.home_bits); ++j) {
      const std::uint64_t e = read_slot(s.table.data(), j, width);
      const std::uint64_t meta = e & kMetaMask;
      if (meta == 0) continue;
      const std::uint64_t home = (j - (meta - 1)) & mask_bits(s.home_bits);
      const std::uint64_t v = (home << rb) | (e >> (4 + value_bits_));
      entries.emplace_back((v << shard_bits_) | i,
                           static_cast<std::uint8_t>((e >> 4) &
                                                     mask_bits(value_bits_)));
    }
    std::sort(entries.begin(), entries.end());
    std::vector<std::uint64_t> keys;
    keys.reserve(entries.size());
    for (const auto& [mixed, v] : entries) keys.push_back(mixed);
    SpillRun run;
    run.count = keys.size();
    run.keys = spill_append(keys);
    std::uint64_t written = keys.size() * 8;
    if (value_bits_ != 0) {
      std::vector<std::uint64_t> values((entries.size() + 63) / 64, 0);
      for (std::size_t j = 0; j < entries.size(); ++j) {
        if (entries[j].second != 0) values[j >> 6] |= std::uint64_t{1} << (j & 63u);
      }
      run.values = spill_append(values);
      written += values.size() * 8;
    }
    s.runs.push_back(run);
    spilled_bytes_.fetch_add(written, std::memory_order_relaxed);
    // Restart the shard empty; the spilled entries answer membership
    // from the mapped run.
    std::vector<std::uint64_t>().swap(s.table);
    s.home_bits = 0;
    s.resident_count = 0;
    recount_shard_bytes(s);
  }
  spill_events_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace evord::search
