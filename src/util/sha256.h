// SHA-256 (FIPS 180-4), self-contained — the content-addressing primitive of
// the incremental analysis cache. Cache keys must be stable across processes
// and machines, so a vendored std::hash or pointer-based scheme is not an
// option; this is the reference algorithm, no dependencies. Every member is
// constexpr, so a digest of compile-time data (the spec corpus the cache key
// covers) is computed by the compiler and costs nothing at run time.
//
//   sash::util::Sha256 h;
//   h.Update(script_text);
//   std::string key = h.HexDigest();          // 64 lowercase hex chars
//   // or, one-shot:
//   std::string key = sash::util::Sha256Hex(script_text);
#ifndef SASH_UTIL_SHA256_H_
#define SASH_UTIL_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace sash::util {

class Sha256 {
 public:
  constexpr Sha256() = default;

  constexpr void Reset() { *this = Sha256(); }

  constexpr void Update(std::string_view s) {
    bit_count_ += uint64_t{s.size()} * 8;
    size_t i = 0;
    while (i < s.size()) {
      if (buffer_len_ == 0 && s.size() - i >= 64) {
        Compress(s.data() + i);
        i += 64;
        continue;
      }
      while (i < s.size() && buffer_len_ < 64) {
        buffer_[buffer_len_++] = s[i++];
      }
      if (buffer_len_ == 64) {
        Compress(buffer_);
        buffer_len_ = 0;
      }
    }
  }

  // Finalizes and returns the 32-byte digest. The object is left finalized;
  // call Reset() to reuse it.
  constexpr std::array<uint8_t, 32> Digest() {
    if (finalized_) {
      return digest_;
    }
    const uint64_t bits = bit_count_;
    Update(std::string_view("\x80", 1));
    while (buffer_len_ != 56) {
      Update(std::string_view("\0", 1));
    }
    char len_be[8] = {};
    for (int i = 0; i < 8; ++i) {
      len_be[i] = static_cast<char>(bits >> (56 - 8 * i));
    }
    // Update() keeps growing bit_count_ during padding; the length written is
    // the pre-padding count captured above.
    Update(std::string_view(len_be, 8));
    for (int i = 0; i < 8; ++i) {
      digest_[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
      digest_[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
      digest_[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
      digest_[4 * i + 3] = static_cast<uint8_t>(state_[i]);
    }
    finalized_ = true;
    return digest_;
  }

  // Finalizes and returns the digest as 64 lowercase hex characters.
  constexpr std::array<char, 64> HexChars() {
    constexpr char kHex[] = "0123456789abcdef";
    const std::array<uint8_t, 32> d = Digest();
    std::array<char, 64> out = {};
    for (size_t i = 0; i < d.size(); ++i) {
      out[2 * i] = kHex[d[i] >> 4];
      out[2 * i + 1] = kHex[d[i] & 0xf];
    }
    return out;
  }
  std::string HexDigest() {
    const std::array<char, 64> hex = HexChars();
    return std::string(hex.data(), hex.size());
  }

 private:
  static constexpr uint32_t kK[64] = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
      0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
      0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
      0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
      0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
      0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
      0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
      0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
      0xc67178f2};

  static constexpr uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

  constexpr void Compress(const char* block) {
    uint32_t w[64] = {};
    for (int i = 0; i < 16; ++i) {
      w[i] = (uint32_t{static_cast<uint8_t>(block[4 * i])} << 24) |
             (uint32_t{static_cast<uint8_t>(block[4 * i + 1])} << 16) |
             (uint32_t{static_cast<uint8_t>(block[4 * i + 2])} << 8) |
             uint32_t{static_cast<uint8_t>(block[4 * i + 3])};
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
    uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
    state_[5] += f;
    state_[6] += g;
    state_[7] += h;
  }

  uint32_t state_[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  uint64_t bit_count_ = 0;
  char buffer_[64] = {};
  size_t buffer_len_ = 0;
  bool finalized_ = false;
  std::array<uint8_t, 32> digest_{};
};

// One-shot convenience: hex digest of `data`.
inline std::string Sha256Hex(std::string_view data) {
  Sha256 h;
  h.Update(data);
  return h.HexDigest();
}

}  // namespace sash::util

#endif  // SASH_UTIL_SHA256_H_
