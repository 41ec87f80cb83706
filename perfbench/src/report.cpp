// Values, ledger, statistics, spans and process probes shared by every
// workload.
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "bench.h"
#include "consistency/causal_checker.h"
#include "erasure/codes.h"

namespace perfbench {

using causalec::consistency::OpRecord;

causalec::erasure::CodePtr make_code(const Shape& shape) {
  if (shape.code == "six-dc") {
    return causalec::erasure::make_six_dc_cross_object(shape.value_bytes);
  }
  return causalec::erasure::make_systematic_rs(shape.n, shape.k,
                                               shape.value_bytes);
}

// -- Values -----------------------------------------------------------------

namespace {

std::uint64_t value_word(std::uint32_t object, std::uint64_t session,
                         std::uint64_t seq) {
  std::uint64_t s = (session << 40) ^ (seq << 8) ^ object ^ 0x5EEDBEEFull;
  return causalec::splitmix64(s);
}

std::uint64_t tag_hash(const Tag& tag) {
  std::uint64_t h = 14695981039346656037ull ^ tag.id;
  for (std::size_t i = 0; i < tag.ts.size(); ++i) {
    h = (h ^ tag.ts[i]) * 1099511628211ull;
  }
  return h;
}

}  // namespace

void fill_value(std::uint8_t* p, std::size_t n, std::uint32_t object,
                std::uint64_t session, std::uint64_t seq) {
  std::memcpy(p, &kValueMagic, 4);
  std::memcpy(p + 4, &object, 4);
  std::memcpy(p + 8, &session, 8);
  std::memcpy(p + 16, &seq, 8);
  const std::uint64_t w = value_word(object, session, seq);
  for (std::size_t i = kValueHeader; i + 8 <= n; i += 8) {
    const std::uint64_t x = w + i * 0x9E3779B97F4A7C15ull;
    std::memcpy(p + i, &x, 8);
  }
}

ValueCheck check_value(const std::uint8_t* p, std::size_t n,
                       std::uint32_t object) {
  ValueCheck c;
  if (n < kValueHeader) {
    c.error = "value shorter than its header";
    return c;
  }
  std::uint32_t magic = 0;
  std::memcpy(&magic, p, 4);
  if (magic == 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (p[i] != 0) {
        c.error = "value is neither initial (all zero) nor a written value";
        return c;
      }
    }
    c.ok = c.initial = true;
    return c;
  }
  std::uint32_t obj = 0;
  std::memcpy(&obj, p + 4, 4);
  std::memcpy(&c.session, p + 8, 8);
  std::memcpy(&c.seq, p + 16, 8);
  if (magic != kValueMagic) {
    c.error = "value header has a bad magic";
    return c;
  }
  if (obj != object) {
    c.error = "read of object " + std::to_string(object) +
              " returned a value written to object " + std::to_string(obj);
    return c;
  }
  const std::uint64_t w = value_word(object, c.session, c.seq);
  for (std::size_t i = kValueHeader; i + 8 <= n; i += 8) {
    std::uint64_t x = 0;
    std::memcpy(&x, p + i, 8);
    if (x != w + i * 0x9E3779B97F4A7C15ull) {
      c.error = "value body differs from write (session " +
                std::to_string(c.session) + ", seq " + std::to_string(c.seq) +
                ") at byte " + std::to_string(i);
      return c;
    }
  }
  c.ok = true;
  return c;
}

// -- Ledger -------------------------------------------------------------------

void Ledger::record(std::uint64_t session, bool is_write, ObjectId object,
                    const Tag& tag, const Witness* witness) {
  if (witness != nullptr && wants_witness(session)) {
    auto& w = witnessed_[session];
    OpRecord op;
    op.client = session + 1;
    op.session_seq = w.size();
    op.is_write = is_write;
    op.object = object;
    op.tag = tag;
    op.timestamp = witness->ts;
    op.value_hash = witness->value_hash;
    w.push_back(Witnessed{std::move(op), witness->invoked_ns, witness->done_ns});
  }
  auto& rec = records_[session];
  if (rec.size() >= kRecordedOpsPerSession) return;
  OpRecord op;
  op.client = session + 1;
  op.session_seq = rec.size();
  op.is_write = is_write;
  op.object = object;
  op.tag = tag;
  rec.push_back(std::move(op));
}

void Ledger::check_witnessed() {
  // Every session witnessed all of its ops invoked before `cut`: up to its
  // last witnessed op while its quota lasted, up to its first failure.
  std::int64_t cut = INT64_MAX;
  bool any = false;
  for (std::size_t s = 0; s < max_sessions_; ++s) {
    const auto& w = witnessed_[s];
    if (w.empty() && witness_cut_ns_[s] == 0) continue;
    any = true;
    if (witness_cut_ns_[s] != 0) cut = std::min(cut, witness_cut_ns_[s]);
    if (w.size() >= kWitnessedOpsPerSession) cut = std::min(cut, w.back().done_ns);
  }
  if (!any) return;
  // A read done before `cut` can only return, or have in its causal past,
  // writes invoked before it: those are all witnessed, so the checker sees
  // every write it needs.
  causalec::consistency::History history;
  for (const auto& w : witnessed_) {
    for (const Witnessed& op : w) {
      if (op.op.is_write ? op.invoked_ns < cut : op.done_ns < cut) {
        history.record(op.op);
      }
    }
  }
  causally_checked_ = history.size();
  const auto causal = causalec::consistency::check_causal_consistency(history);
  for (std::size_t i = 0; i < causal.violations.size() && i < 10; ++i) {
    fail("causal checker (live ops): " + causal.violations[i]);
  }
}

void Ledger::note_write(std::size_t tid, std::uint64_t session,
                        std::uint64_t seq, ObjectId object, const Tag& tag,
                        const Witness* witness) {
  if (seq % kTagStride == 0) {
    auto& t = tags_[session];
    if (t.size() <= seq / kTagStride) t.resize(seq / kTagStride + 1);
    t[seq / kTagStride] = TaggedWrite{object, tag_hash(tag)};
  }
  auto [it, inserted] = max_tag_[tid].try_emplace(object, tag);
  if (!inserted && it->second < tag) it->second = tag;
  record(session, true, object, tag, witness);
}

void Ledger::note_read(std::size_t tid, std::uint64_t session,
                       ObjectId object, const ValueCheck& check,
                       const Tag& tag, const Witness* witness) {
  const std::string what = "read of object " + std::to_string(object);
  if (!check.ok) {
    fail(what + ": " + check.error);
    return;
  }
  if (check.initial != tag.is_zero()) {
    fail(what + " returned a value and a tag that disagree on being initial");
    return;
  }
  if (!check.initial) {
    if (check.session >= max_sessions_ ||
        check.seq >= issued_[check.session].load(std::memory_order_acquire)) {
      fail(what + " returned (session " + std::to_string(check.session) +
           ", seq " + std::to_string(check.seq) + ") which was never written");
      return;
    }
    if (tag.id != check.session + 1) {
      fail(what + " returned a value under another client's tag");
      return;
    }
    if (check.seq % kTagStride == 0) {
      tagged_reads_[tid].push_back(
          TaggedRead{object, check.session, check.seq, tag_hash(tag)});
    }
  }
  record(session, false, object, tag, witness);
}

void Ledger::fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (violations_.size() < 20) violations_.push_back(what);
  else if (violations_.size() == 20) violations_.push_back("(more elided)");
}

bool Ledger::verify() {
  for (const auto& log : tagged_reads_) {
    for (const TaggedRead& r : log) {
      const auto& t = tags_[r.session];
      const std::size_t slot = r.seq / kTagStride;
      if (slot >= t.size() || t[slot].object == ~0u) {
        fail("read returned (session " + std::to_string(r.session) +
             ", seq " + std::to_string(r.seq) +
             ") which was never acknowledged");
      } else if (t[slot].object != r.object) {
        fail("read returned a write to another object");
      } else if (t[slot].tag_hash != r.tag_hash) {
        fail("read returned write (session " + std::to_string(r.session) +
             ", seq " + std::to_string(r.seq) +
             ") under a tag that write did not get");
      }
    }
  }
  for (const auto& m : max_tag_) {
    for (const auto& [object, tag] : m) {
      auto it = max_writes_.find(object);
      if (it == max_writes_.end() || it->second.tag < tag) {
        OpRecord op;
        op.is_write = true;
        op.object = object;
        op.tag = tag;
        max_writes_[object] = std::move(op);
      }
    }
  }
  causalec::consistency::History history;
  for (const auto& rec : records_) {
    for (const OpRecord& op : rec) history.record(op);
  }
  const auto session = causalec::consistency::check_session_guarantees(history);
  for (const auto& v : session.violations) fail("session checker: " + v);
  check_witnessed();
  return violations_.empty();
}

// -- Statistics ----------------------------------------------------------------

double percentile(std::vector<std::int64_t> v, double p) {
  if (v.empty()) return 0;
  const std::size_t idx = std::min(
      v.size() - 1, static_cast<std::size_t>(p * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return static_cast<double>(v[idx]);
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// -- Windowed statistics -----------------------------------------------------------

std::pair<double, double> cpu_steal() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v = 0, total = 0, steal = 0;
  in >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

void Windows::snapshot(std::vector<std::size_t>& w, std::vector<std::size_t>& r,
                       std::vector<std::uint64_t>& ops) const {
  w.resize(counts_.size());
  r.resize(counts_.size());
  ops.resize(counts_.size());
  for (std::size_t s = 0; s < counts_.size(); ++s) {
    w[s] = counts_[s].writes.load(std::memory_order_acquire);
    r[s] = counts_[s].reads.load(std::memory_order_acquire);
    ops[s] = counts_[s].ops.load(std::memory_order_acquire);
  }
}

void Windows::record(std::size_t session, LatencyLog& log, bool is_write,
                     std::int64_t ns) {
  Count& c = counts_[session];
  c.ops.store(c.ops.load(std::memory_order_relaxed) + 1,
              std::memory_order_release);
  const std::uint64_t w = window_seq_.load(std::memory_order_acquire);
  if (w != c.seen_window) {
    c.seen_window = w;
    c.seen_writes = c.seen_reads = 0;
  }
  std::vector<std::int64_t>& v = is_write ? log.write_ns : log.read_ns;
  const std::uint64_t seen = ++(is_write ? c.seen_writes : c.seen_reads);
  if (seen <= kSamplesPerWindow) {
    v.push_back(ns);
    (is_write ? c.writes : c.reads).store(v.size(), std::memory_order_release);
    return;
  }
  // Algorithm R over the window's last kSamplesPerWindow slots.
  const std::uint64_t j = c.rng.next_below(seen);
  if (j < kSamplesPerWindow) v[v.size() - kSamplesPerWindow + j] = ns;
}

void Windows::start() {
  open_ = Window{};
  open_.start_ns = now_ns();
  snapshot(open_.w0, open_.r0, open_.ops0);
}

void Windows::tick() {
  Window w = std::move(open_);
  w.end_ns = now_ns();
  snapshot(w.w1, w.r1, w.ops1);
  window_seq_.fetch_add(1, std::memory_order_acq_rel);
  open_ = Window{};
  open_.start_ns = w.end_ns;
  open_.w0 = w.w1;
  open_.r0 = w.r1;
  open_.ops0 = w.ops1;
  windows_.push_back(std::move(w));
}

Windows::Summary Windows::summarize(
    const std::vector<const LatencyLog*>& logs) const {
  Summary out;
  std::vector<double> rate, w50, w99, r50, r99;
  double total_ns = 0;
  for (const Window& w : windows_) {
    std::vector<std::int64_t> writes, reads;
    std::uint64_t ops = 0;
    for (std::size_t s = 0; s < logs.size() && s < w.w1.size(); ++s) {
      const auto& wl = logs[s]->write_ns;
      const auto& rl = logs[s]->read_ns;
      writes.insert(writes.end(), wl.begin() + static_cast<std::ptrdiff_t>(w.w0[s]),
                    wl.begin() + static_cast<std::ptrdiff_t>(w.w1[s]));
      reads.insert(reads.end(), rl.begin() + static_cast<std::ptrdiff_t>(w.r0[s]),
                   rl.begin() + static_cast<std::ptrdiff_t>(w.r1[s]));
      ops += w.ops1[s] - w.ops0[s];
    }
    const double seconds = static_cast<double>(w.end_ns - w.start_ns) / 1e9;
    if (seconds <= 0) continue;
    rate.push_back(static_cast<double>(ops) / seconds);
    if (!writes.empty()) {
      w50.push_back(percentile(writes, 0.50));
      w99.push_back(percentile(writes, 0.99));
    }
    if (!reads.empty()) {
      r50.push_back(percentile(reads, 0.50));
      r99.push_back(percentile(reads, 0.99));
    }
    out.write_samples += writes.size();
    out.read_samples += reads.size();
    for (auto ns : writes) total_ns += static_cast<double>(ns);
    for (auto ns : reads) total_ns += static_cast<double>(ns);
    out.intervals.emplace_back(w.start_ns, w.end_ns);
  }
  out.windows = rate.size();
  const std::size_t samples = out.write_samples + out.read_samples;
  out.mean_op_ns = samples == 0 ? 0 : total_ns / static_cast<double>(samples);
  out.ops_per_s = median_of(rate);
  out.write_p50_ns = median_of(w50);
  out.write_p99_ns = median_of(w99);
  out.read_p50_ns = median_of(r50);
  out.read_p99_ns = median_of(r99);
  return out;
}

double Windows::Summary::median_of_window_means(
    const std::vector<std::pair<std::int64_t, double>>& samples) const {
  std::vector<double> means;
  for (const auto& [a, b] : intervals) {
    double sum = 0;
    std::size_t n = 0;
    for (const auto& [t, v] : samples) {
      if (t >= a && t < b) {
        sum += v;
        ++n;
      }
    }
    if (n > 0) means.push_back(sum / static_cast<double>(n));
  }
  return median_of(means);
}

double mean_of(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

void add_window_metrics(const Windows::Summary& s, const std::string& label,
                        RunResult& r) {
  r.set(r.e2e, "ops_per_s", s.ops_per_s, "1/s");
  r.set(r.e2e, "write_p50_us", s.write_p50_ns / 1e3, "us");
  r.set(r.e2e, "write_p99_us", s.write_p99_ns / 1e3, "us");
  r.set(r.e2e, "read_p50_us", s.read_p50_ns / 1e3, "us");
  r.set(r.e2e, "read_p99_us", s.read_p99_ns / 1e3, "us");
  r.notes.push_back("timings: medians over " + std::to_string(s.windows) +
                    " windows of 1 s; samples " + label +
                    ": writes=" + std::to_string(s.write_samples) +
                    " reads=" + std::to_string(s.read_samples));
}

// -- Spans -----------------------------------------------------------------------

double Spans::self_us_per_op(const std::string& root, bool children) const {
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  std::unordered_map<std::uint64_t, bool> is_root;
  for (const auto& buf : buffers_) {
    for (const SpanRec& s : buf) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
      if (s.parent == 0 && root == s.name) is_root[s.id] = true;
    }
  }
  if (is_root.empty()) return 0;
  double total = 0;
  for (const auto& buf : buffers_) {
    for (const SpanRec& s : buf) {
      const bool counted = children ? is_root.count(s.parent) != 0
                                    : (s.parent == 0 && root == s.name);
      if (!counted) continue;
      std::int64_t self = s.end_ns - s.start_ns;
      if (auto it = child_ns.find(s.id); it != child_ns.end()) self -= it->second;
      total += static_cast<double>(std::max<std::int64_t>(self, 0));
    }
  }
  return total / static_cast<double>(is_root.size()) / 1e3;
}

double Spans::mean_us(const std::string& name) const {
  double sum = 0;
  std::size_t n = 0;
  for (const auto& buf : buffers_) {
    for (const SpanRec& s : buf) {
      if (name != s.name) continue;
      sum += static_cast<double>(s.end_ns - s.start_ns);
      ++n;
    }
  }
  return n == 0 ? 0 : sum / static_cast<double>(n) / 1e3;
}

bool Spans::write_chrome_trace(const std::string& path,
                               std::size_t limit) const {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t t0 = INT64_MAX;
  for (const auto& buf : buffers_) {
    for (const SpanRec& s : buf) t0 = std::min(t0, s.start_ns);
  }
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  // Every span name gets an equal share of the limit, so the layer
  // measurements are not crowded out by the op spans.
  std::map<std::string, std::size_t> per_name;
  for (const auto& buf : buffers_) {
    for (const SpanRec& s : buf) per_name[s.name] = 0;
  }
  const std::size_t cap = per_name.empty() ? 0 : limit / per_name.size() + 1;
  bool first = true;
  for (const auto& buf : buffers_) {
    for (const SpanRec& s : buf) {
      if (per_name[s.name]++ >= cap) continue;
      char line[320];
      std::snprintf(line, sizeof line,
                    "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                    "\"args\":{\"op\":%llu,\"id\":%llu,\"parent\":%llu}}",
                    first ? "" : ",", s.name,
                    static_cast<int>(std::strcspn(s.name, ".")), s.name,
                    static_cast<double>(s.start_ns - t0) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                    static_cast<unsigned long long>(s.op),
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent));
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// -- Process probes ------------------------------------------------------------------

double rss_mib(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kib = 0;
      is >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

std::vector<int> child_pids() {
  std::vector<int> out;
  const int self = static_cast<int>(::getpid());
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return out;
  while (dirent* e = ::readdir(dir)) {
    const int pid = std::atoi(e->d_name);
    if (pid <= 0) continue;
    std::ifstream in(std::string("/proc/") + e->d_name + "/stat");
    std::string stat;
    std::getline(in, stat);
    const auto close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream is(stat.substr(close + 2));
    char state = 0;
    int ppid = 0;
    is >> state >> ppid;
    if (ppid == self) out.push_back(pid);
  }
  ::closedir(dir);
  return out;
}

}  // namespace perfbench
