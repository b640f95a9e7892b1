#include "smt/query_cache.hpp"

#include <atomic>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "obs/obs.hpp"
#include "support/file_lock.hpp"

namespace llhsc::smt {

namespace {

namespace fs = std::filesystem;

/// Bumped whenever the canonical text or entry format changes; part of the
/// directory name, so stale entries are never consulted.
constexpr int kCacheFormatVersion = 1;

struct Canonicalizer {
  const logic::FormulaArena* fa;
  const logic::BvArena* bv;
  std::ostringstream os;
  // First-visit sequence numbers. Names are deliberately ignored: fresh
  // counters differ between runs, but the query structure does not.
  std::unordered_map<uint32_t, uint32_t> term_seq;
  std::unordered_map<uint32_t, uint32_t> formula_seq;
  std::unordered_map<uint32_t, uint32_t> bool_var_seq;

  void term(logic::BvTerm t) {
    auto [it, fresh] =
        term_seq.emplace(t.id(), static_cast<uint32_t>(term_seq.size()));
    if (!fresh) {
      os << 't' << it->second;
      return;
    }
    const logic::BvOp op = bv->term_op(t);
    os << '(' << static_cast<int>(op) << ' ' << bv->width(t);
    switch (op) {
      case logic::BvOp::kConst:
        os << ' ' << bv->const_value(t);
        break;
      case logic::BvOp::kVar:
        break;
      case logic::BvOp::kNot:
        os << ' ';
        term(bv->operand_a(t));
        break;
      case logic::BvOp::kShlConst:
      case logic::BvOp::kLshrConst:
        os << ' ' << bv->immediate(t) << ' ';
        term(bv->operand_a(t));
        break;
      case logic::BvOp::kZeroExt:
        os << ' ';
        term(bv->operand_a(t));
        break;
      case logic::BvOp::kExtract:
        os << ' ' << bv->immediate2(t) << ' ' << bv->immediate(t) << ' ';
        term(bv->operand_a(t));
        break;
      case logic::BvOp::kIte:
        os << ' ';
        formula(bv->ite_condition(t));
        os << ' ';
        term(bv->operand_a(t));
        os << ' ';
        term(bv->operand_b(t));
        break;
      default:  // binary arithmetic / bitwise / concat
        os << ' ';
        term(bv->operand_a(t));
        os << ' ';
        term(bv->operand_b(t));
        break;
    }
    os << ')';
  }

  void formula(logic::Formula f) {
    auto [it, fresh] =
        formula_seq.emplace(f.id(), static_cast<uint32_t>(formula_seq.size()));
    if (!fresh) {
      os << 'f' << it->second;
      return;
    }
    const logic::Op op = fa->op(f);
    os << '[' << static_cast<int>(op);
    switch (op) {
      case logic::Op::kTrue:
      case logic::Op::kFalse:
        break;
      case logic::Op::kVar: {
        const uint32_t idx = fa->var_of(f).index;
        auto [vit, _] = bool_var_seq.emplace(
            idx, static_cast<uint32_t>(bool_var_seq.size()));
        os << ' ' << vit->second;
        break;
      }
      case logic::Op::kBvAtom: {
        const logic::BvAtom& atom = fa->bv_atom(f);
        os << ' ' << static_cast<int>(atom.pred) << ' ';
        term(logic::BvTerm::from_id(atom.lhs_term));
        os << ' ';
        term(logic::BvTerm::from_id(atom.rhs_term));
        break;
      }
      default:
        for (logic::Formula operand : fa->operands(f)) {
          os << ' ';
          formula(operand);
        }
        break;
    }
    os << ']';
  }
};

std::string hex64(uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

}  // namespace

std::string canonical_query_text(const logic::FormulaArena& formulas,
                                 const logic::BvArena& bitvectors,
                                 std::span<const logic::Formula> fs,
                                 logic::BvTerm witness_term) {
  Canonicalizer c{&formulas, &bitvectors, {}, {}, {}, {}};
  for (logic::Formula f : fs) {
    c.formula(f);
    c.os << '\n';
  }
  c.os << "w ";
  if (witness_term.valid()) {
    c.term(witness_term);
  } else {
    c.os << '-';
  }
  c.os << '\n';
  return c.os.str();
}

uint64_t query_fingerprint(std::string_view canonical_text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char ch : canonical_text) {
    h ^= ch;
    h *= 0x100000001b3ull;
  }
  return h;
}

QueryCache::QueryCache(const std::string& dir, Backend backend) {
  if (dir.empty()) return;
  std::error_code ec;
  if (fs::exists(dir, ec) && !ec && !fs::is_directory(dir, ec)) {
    error_ = "cache directory '" + dir + "' exists but is not a directory";
    return;
  }
  version_dir_ = dir + "/qc" + std::to_string(kCacheFormatVersion) + "-" +
                 std::string(to_string(backend));
  ec.clear();
  fs::create_directories(version_dir_, ec);
  if (ec || !fs::is_directory(version_dir_, ec) || ec) {
    error_ = "cannot create cache directory '" + version_dir_ + "'" +
             (ec ? ": " + ec.message() : "");
    return;
  }
  // Probe write: create_directories succeeding does not prove the directory
  // is writable (read-only remount, sticky permissions). One tiny file,
  // written and removed, decides it up front instead of every store()
  // silently failing later.
  static std::atomic<uint64_t> probe_counter{0};
  const std::string probe =
      version_dir_ + "/.probe" + std::to_string(probe_counter.fetch_add(1)) +
      "-" + hex64(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  {
    std::ofstream out(probe, std::ios::binary);
    out << "llhsc-qc-probe\n";
    if (!out.good()) {
      error_ = "cache directory '" + version_dir_ + "' is not writable";
      ec.clear();
      fs::remove(probe, ec);
      return;
    }
  }
  ec.clear();
  fs::remove(probe, ec);
  enabled_ = true;
}

std::shared_ptr<const QueryCache> QueryCache::open(const std::string& dir,
                                                   Backend backend) {
  static std::mutex mutex;
  static std::map<std::pair<std::string, Backend>,
                  std::shared_ptr<const QueryCache>>
      opened;
  std::lock_guard<std::mutex> lock(mutex);
  auto key = std::make_pair(dir, backend);
  if (auto it = opened.find(key); it != opened.end()) {
    std::error_code ec;
    if (fs::is_directory(it->second->version_dir_, ec)) return it->second;
    opened.erase(it);
  }
  auto cache = std::make_shared<const QueryCache>(dir, backend);
  if (cache->enabled()) opened.emplace(std::move(key), cache);
  return cache;
}

std::string QueryCache::entry_path(uint64_t fingerprint) const {
  return version_dir_ + "/" + hex64(fingerprint) + ".qc";
}

std::optional<QueryCache::Entry> QueryCache::lookup(
    const std::string& canonical_text) const {
  if (!enabled_) return std::nullopt;
  std::optional<Entry> found = lookup_uncounted(canonical_text);
  obs::count(found ? "qcache.hit" : "qcache.miss", "qcache", 1);
  return found;
}

std::optional<QueryCache::Entry> QueryCache::lookup_uncounted(
    const std::string& canonical_text) const {
  std::ifstream in(entry_path(query_fingerprint(canonical_text)),
                   std::ios::binary);
  if (!in) return std::nullopt;
  std::string header;
  if (!std::getline(in, header)) return std::nullopt;
  // Any malformed header is a miss: an entry is a hint from another run,
  // never trusted input, so a corrupted one must cost a solver query only.
  std::istringstream hs(header);
  std::string magic, verdict, witness_hex, rest;
  int version = 0;
  if (!(hs >> magic >> version >> verdict >> witness_hex) || (hs >> rest) ||
      magic != "llhsc-qc" || version != kCacheFormatVersion) {
    return std::nullopt;
  }
  Entry entry;
  if (verdict == "sat") {
    entry.result = CheckResult::kSat;
  } else if (verdict == "unsat") {
    entry.result = CheckResult::kUnsat;
  } else {
    return std::nullopt;
  }
  const char* const end = witness_hex.data() + witness_hex.size();
  const auto [parsed_end, err] =
      std::from_chars(witness_hex.data(), end, entry.witness, 16);
  if (err != std::errc() || parsed_end != end) return std::nullopt;
  // Collision guard: the stored canonical text must match the probe. A
  // mismatch means two distinct queries share a 64-bit fingerprint — count
  // it and fall through to the solver instead of replaying a wrong verdict.
  std::ostringstream body;
  body << in.rdbuf();
  if (body.str() != canonical_text) {
    obs::count("qcache.collisions", "qcache", 1);
    return std::nullopt;
  }
  return entry;
}

void QueryCache::store(const std::string& canonical_text,
                       const Entry& entry) const {
  if (!enabled_ || entry.result == CheckResult::kUnknown) return;
  const std::string path = entry_path(query_fingerprint(canonical_text));
  // Single-writer discipline for the cross-process shared cache: the rename
  // below is already atomic (readers never see a torn entry and stay
  // lock-free), so the flock's job is to serialise concurrent daemon workers
  // publishing the same directory — and, being kernel-owned, it is released
  // automatically if the holder is kill -9'd mid-write
  // (tools/check_crash_recovery.sh asserts that release).
  const support::FileLock writer_lock =
      support::FileLock::exclusive(version_dir_ + "/.writer.lock");
  static std::atomic<uint64_t> write_counter{0};
  const std::string tmp =
      path + ".tmp" + std::to_string(write_counter.fetch_add(1)) + "-" +
      hex64(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) return;
    out << "llhsc-qc " << kCacheFormatVersion << ' '
        << (entry.result == CheckResult::kSat ? "sat" : "unsat") << ' '
        << hex64(entry.witness) << '\n'
        << canonical_text;
    if (!out.good()) {
      out.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      return;
    }
  }
  // Atomic publish; racing writers produce identical content, so whichever
  // rename lands last is as good as the first.
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return;
  }
  obs::count("qcache.store", "qcache", 1);
}

}  // namespace llhsc::smt
