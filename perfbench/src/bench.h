// Shared pieces of the CausalEC benchmark: workload shapes, seeded op
// generation, self-verifying values, latency statistics, benchmark-side
// spans and the metric table every workload fills.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "causalec/tag.h"
#include "common/random.h"
#include "common/types.h"
#include "consistency/history.h"
#include "erasure/code.h"
#include "workload/driver.h"

namespace perfbench {

using causalec::ClientId;
using causalec::NodeId;
using causalec::ObjectId;
using causalec::Tag;
using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Command line and workload shape.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server_bin;  // causalec_server, for routed-read-1k
  std::string work_dir;    // scratch for data dirs; removed at exit
  std::string trace_out;   // Chrome-trace JSON path (traced runs)
  /// Self-test: corrupt the N-th read value (1-based) before it is checked.
  std::uint64_t corrupt_read = 0;
};

struct Shape {
  std::string name;
  std::string code;  // "six-dc" or "rs"
  std::size_t n = 0;
  std::size_t k = 0;
  std::size_t value_bytes = 0;
  double write_fraction = 0.5;
  std::vector<NodeId> homes;  // one entry per session (closed loop)
  /// Per-layer metrics of layers the workload does not use: they may be
  /// left unmeasured (reported as 0); any other missing one is a violation.
  std::vector<std::string> off_path;
};

causalec::erasure::CodePtr make_code(const Shape& shape);

/// One generated operation.
struct Op {
  bool is_write = false;
  ObjectId object = 0;
};

/// Seeded per-session op stream: uniform objects drawn per op
/// (workload::KeyPicker with theta 0) and a write share (workload::OpMix).
class OpStream {
 public:
  OpStream(const Shape& shape, std::uint64_t seed, std::uint64_t stream)
      : mix_{shape.write_fraction},
        keys_(shape.k, 0.0, seed * 0x9E3779B97F4A7C15ull + stream * 7919 + 1),
        rng_(seed ^ (0xA5A5A5A5ull + stream * 0x100000001B3ull)) {}

  Op next() {
    Op op;
    op.is_write = rng_.next_bool(mix_.write_fraction);
    op.object = keys_.next();
    return op;
  }

 private:
  causalec::workload::OpMix mix_;
  causalec::workload::KeyPicker keys_;
  causalec::Rng rng_;
};

// ---------------------------------------------------------------------------
// Self-verifying values: every written value encodes (object, session, seq)
// in a header and derives every body word from them, so a read can be
// checked byte for byte against the write it claims to return.
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t kValueMagic = 0xCEC0BE4Cu;
inline constexpr std::size_t kValueHeader = 24;

void fill_value(std::uint8_t* p, std::size_t n, std::uint32_t object,
                std::uint64_t session, std::uint64_t seq);

struct ValueCheck {
  bool ok = false;
  bool initial = false;  // the all-zero initial value
  std::uint64_t session = 0;
  std::uint64_t seq = 0;
  std::string error;
};
ValueCheck check_value(const std::uint8_t* p, std::size_t n,
                       std::uint32_t object);

/// What a live op's response says about its causal position: the
/// server's vector clock at the response (ts in Definition 6), the hash of
/// the written or returned bytes, and when the op was invoked and done.
struct Witness {
  causalec::VectorClock ts;
  std::uint64_t value_hash = 0;
  std::int64_t invoked_ns = 0;
  std::int64_t done_ns = 0;
};

/// Per-run correctness ledger, with memory that does not grow with the op
/// count (the benchmark's own memory is part of rss_mib). Every read is
/// checked inline: its bytes (check_value), that its (session, seq) write
/// had been issued, and that its tag belongs to that session's client.
/// Reads of every kTagStride-th write of a session are also checked, after
/// the run, to carry exactly the tag that write was acknowledged with. A
/// bounded prefix of every session is kept for the session-guarantee
/// checker. Where the entry point returns vector clocks, the first
/// kWitnessedOpsPerSession ops of every session also carry a Witness, and
/// verify() runs the causal checker on the live ops of a time prefix of the
/// run in which every session's ops are all witnessed.
class Ledger {
 public:
  static constexpr std::size_t kMaxThreads = 16;
  static constexpr std::size_t kRecordedOpsPerSession = 4000;
  static constexpr std::size_t kWitnessedOpsPerSession = 1000;
  static constexpr std::uint64_t kTagStride = 64;

  explicit Ledger(std::size_t max_sessions)
      : issued_(std::make_unique<std::atomic<std::uint64_t>[]>(max_sessions)),
        max_sessions_(max_sessions),
        tags_(max_sessions),
        records_(max_sessions),
        witnessed_(max_sessions),
        witness_cut_ns_(max_sessions, 0) {}

  /// Before a session sends write `seq`: from then on a read may return it.
  void note_issue(std::uint64_t session, std::uint64_t seq) {
    issued_[session].store(seq + 1, std::memory_order_release);
  }
  /// A session's ops must all complete on one thread at a time; `tid`
  /// selects that thread's private state. `witness` may be null.
  void note_write(std::size_t tid, std::uint64_t session, std::uint64_t seq,
                  ObjectId object, const Tag& tag,
                  const Witness* witness = nullptr);
  void note_read(std::size_t tid, std::uint64_t session, ObjectId object,
                 const ValueCheck& check, const Tag& tag,
                 const Witness* witness = nullptr);
  /// True while the session's next op should carry a Witness.
  bool wants_witness(std::uint64_t session) const {
    return witnessed_[session].size() < kWitnessedOpsPerSession &&
           witness_cut_ns_[session] == 0;
  }
  /// The session's op invoked at `invoked_ns` failed: its fate is unknown,
  /// so the session's witnessed ops end before it.
  void note_failure(std::uint64_t session, std::int64_t invoked_ns) {
    if (witness_cut_ns_[session] == 0) witness_cut_ns_[session] = invoked_ns;
  }
  /// Thread-safe.
  void fail(const std::string& what);

  /// After every thread stopped: the deferred tag checks, the
  /// session-guarantee checker on the recorded prefixes and the causal
  /// checker on the witnessed live ops. False on any violation.
  bool verify();
  /// Live ops the causal checker saw (valid after verify).
  std::size_t causally_checked() const { return causally_checked_; }
  /// Largest write tag per object seen by any thread (valid after verify).
  const std::map<ObjectId, causalec::consistency::OpRecord>& max_writes()
      const {
    return max_writes_;
  }
  std::vector<std::string> violations() const { return violations_; }
  std::size_t max_sessions() const { return max_sessions_; }

 private:
  struct TaggedWrite {
    ObjectId object = ~0u;  // ~0u: not acknowledged
    std::uint64_t tag_hash = 0;
  };
  struct TaggedRead {
    ObjectId object;
    std::uint64_t session;
    std::uint64_t seq;
    std::uint64_t tag_hash;
  };
  struct Witnessed {
    causalec::consistency::OpRecord op;
    std::int64_t invoked_ns;
    std::int64_t done_ns;
  };
  void record(std::uint64_t session, bool is_write, ObjectId object,
              const Tag& tag, const Witness* witness);
  void check_witnessed();

  std::unique_ptr<std::atomic<std::uint64_t>[]> issued_;  // [session]
  std::size_t max_sessions_;
  std::vector<std::vector<TaggedWrite>> tags_;  // [session][seq / kTagStride]
  std::vector<std::vector<causalec::consistency::OpRecord>> records_;
  std::vector<std::vector<Witnessed>> witnessed_;  // [session]
  std::vector<std::int64_t> witness_cut_ns_;       // [session]; 0: none
  std::size_t causally_checked_ = 0;
  std::vector<TaggedRead> tagged_reads_[kMaxThreads];
  std::map<ObjectId, Tag> max_tag_[kMaxThreads];
  std::map<ObjectId, causalec::consistency::OpRecord> max_writes_;
  mutable std::mutex mu_;
  std::vector<std::string> violations_;
};

// ---------------------------------------------------------------------------
// Latency statistics.
// ---------------------------------------------------------------------------

/// Percentile (p in [0,1]) of an unsorted sample, nearest rank; 0 if empty.
double percentile(std::vector<std::int64_t> v, double p);
double median_of(std::vector<double> v);
double mean_of(const std::vector<double>& v);

/// A running mean of durations.
struct MeanNs {
  double total_ns = 0;
  std::uint64_t count = 0;
  void add(std::int64_t ns) {
    total_ns += static_cast<double>(ns);
    ++count;
  }
  void merge(const MeanNs& other) {
    total_ns += other.total_ns;
    count += other.count;
  }
  double mean_us() const {
    return count == 0 ? 0 : total_ns / static_cast<double>(count) / 1e3;
  }
};

/// Per-thread latency samples split by op type.
struct LatencyLog {
  std::vector<std::int64_t> write_ns;
  std::vector<std::int64_t> read_ns;
  /// Reserves room for `ops` samples of each type up front: untouched
  /// capacity costs no resident memory, and no reallocation copies later.
  void reserve(std::size_t ops) {
    write_ns.reserve(ops);
    read_ns.reserve(ops);
  }
};

// ---------------------------------------------------------------------------
// Windowed statistics. On a shared host the CPU time the benchmark gets
// comes and goes in bursts (host steal, busy neighbours), and every timing
// moves with it. The measured phase is cut into 1 s windows; each
// end-to-end figure is computed per window and the median over the windows
// is reported, so bursts that hit fewer than half of a run's windows do not
// decide its figures.
// ---------------------------------------------------------------------------

/// (steal, total) CPU jiffies of the whole machine, from /proc/stat.
std::pair<double, double> cpu_steal();

class Windows {
 public:
  static constexpr auto kWindow = std::chrono::seconds(1);

  /// Latency samples kept per session, op type and window: a uniform
  /// sample (reservoir) of that window's ops, so the benchmark's memory
  /// does not grow with throughput. Windows and samples are large enough
  /// that each window's p99 has at least ten samples beyond it.
  static constexpr std::size_t kSamplesPerWindow = 2000;

  explicit Windows(std::size_t sessions) : counts_(sessions) {
    for (std::size_t s = 0; s < sessions; ++s) counts_[s].rng = causalec::Rng(s + 1);
  }

  /// A session thread calls this once per completed op, with the session's
  /// own log.
  void record(std::size_t session, LatencyLog& log, bool is_write,
              std::int64_t ns);

  /// Opens the first window (before the session threads record anything).
  void start();
  /// Closes the current window and opens the next.
  void tick();

  /// Medians over the windows of per-window figures.
  struct Summary {
    double ops_per_s = 0;
    double write_p50_ns = 0, write_p99_ns = 0;
    double read_p50_ns = 0, read_p99_ns = 0;
    std::size_t windows = 0;
    std::size_t write_samples = 0, read_samples = 0;  // over all windows
    double mean_op_ns = 0;  // over every sample of every window
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals;

    /// Median over the windows of the mean of the (time, value) samples
    /// taken inside each window (windows without a sample are skipped).
    double median_of_window_means(
        const std::vector<std::pair<std::int64_t, double>>& samples) const;
  };
  /// After the session threads stopped; `logs[s]` is session s's log.
  Summary summarize(const std::vector<const LatencyLog*>& logs) const;

 private:
  struct Count {
    std::atomic<std::size_t> writes{0};  // samples stored
    std::atomic<std::size_t> reads{0};
    std::atomic<std::uint64_t> ops{0};   // ops completed
    // Owned by the session thread.
    std::uint64_t seen_window = 0;
    std::uint64_t seen_writes = 0;  // in the current window
    std::uint64_t seen_reads = 0;
    causalec::Rng rng;
  };
  struct Window {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    // Per session: stored sample ranges and op counts at the edges.
    std::vector<std::size_t> w0, w1, r0, r1;
    std::vector<std::uint64_t> ops0, ops1;
  };
  void snapshot(std::vector<std::size_t>& w, std::vector<std::size_t>& r,
                std::vector<std::uint64_t>& ops) const;

  std::atomic<std::uint64_t> window_seq_{0};
  std::vector<Count> counts_;  // sized once; never resized
  std::vector<Window> windows_;
  Window open_;
};

struct RunResult;
/// The end-to-end timings of a summary: ops_per_s and the latency
/// percentiles, plus a note of the windows and samples behind them.
void add_window_metrics(const Windows::Summary& s, const std::string& label,
                        RunResult& r);

// ---------------------------------------------------------------------------
// Benchmark-side spans (traced runs only): name, start, end, parent, and
// one id per op shared by all of its spans. Each thread owns one buffer.
// ---------------------------------------------------------------------------

struct SpanRec {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t id;
  std::uint64_t parent;  // 0 = root
  std::uint64_t op;
  std::uint32_t tid;
};

class Spans {
 public:
  static constexpr std::size_t kMaxThreads = 16;

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  std::uint64_t new_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(std::uint32_t tid, const char* name, std::int64_t start,
              std::int64_t end, std::uint64_t id, std::uint64_t parent,
              std::uint64_t op) {
    buffers_[tid].push_back(SpanRec{name, start, end, id, parent, op, tid});
  }

  /// Self time (duration minus the part covered by child spans) summed
  /// over the root spans named `root` (children = false) or over their
  /// direct children (children = true), per root span, in microseconds.
  double self_us_per_op(const std::string& root, bool children) const;
  /// Mean duration in microseconds of spans with this name (0 if none).
  double mean_us(const std::string& name) const;
  /// Chrome trace_event JSON (Perfetto opens it); at most `limit` spans.
  bool write_chrome_trace(const std::string& path, std::size_t limit) const;

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::vector<SpanRec> buffers_[kMaxThreads];
};

/// RAII span; records nothing when tracing is off.
class Span {
 public:
  Span(Spans& spans, std::uint32_t tid, const char* name, std::uint64_t op,
       std::uint64_t parent = 0)
      : spans_(spans.on() ? &spans : nullptr),
        tid_(tid),
        name_(name),
        op_(op),
        parent_(parent) {
    if (spans_ != nullptr) {
      id_ = spans_->new_id();
      start_ = now_ns();
    }
  }
  ~Span() {
    if (spans_ != nullptr) {
      spans_->record(tid_, name_, start_, now_ns(), id_, parent_, op_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Spans* spans_;
  std::uint32_t tid_;
  const char* name_;
  std::uint64_t op_;
  std::uint64_t parent_;
  std::uint64_t id_ = 0;
  std::int64_t start_ = 0;
};

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  Metrics e2e;
  Metrics layer;
  /// Human-readable lines printed before the JSON result (sample counts).
  std::vector<std::string> notes;

  bool correct() const { return violations.empty(); }
  void set(Metrics& m, const std::string& name, double value,
           const std::string& unit) {
    m[name] = Metric{value, unit};
  }
};

/// Resident set (VmRSS) of a process in MiB; 0 if unreadable.
double rss_mib(int pid);
/// Pids of this process's direct children.
std::vector<int> child_pids();

/// Shared by the layer benchmarks and the runtime workloads.
struct LayerInputs {
  const Shape* shape = nullptr;
  std::uint64_t seed = 0;
  double budget_s = 0.5;  // wall time per timed layer section
  std::string work_dir;
  Spans* spans = nullptr;
  /// Measure runtime.* with a ThreadedCluster probe (workloads that do not
  /// run ThreadedCluster themselves).
  bool probe_runtime = true;
  /// Measure net.ping_us against an in-process NodeDaemon (workloads that
  /// do not start daemons themselves).
  bool probe_ping = false;
};

/// The single-threaded Server-API replay of the workload's op stream
/// through a benchmark-owned in-memory transport. Always run (its history
/// feeds the causal, session and convergence checkers); in traced runs it
/// also fills the causalec.* / erasure.* / gf.* / persist.* / frontdoor
/// microbenchmark metrics.
void run_layers(const LayerInputs& in, bool timed, RunResult& r);

/// Every per-layer metric name with its unit; traced runs report all of
/// them (0 where the layer is not on the workload's path).
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

/// Per-op self time of the workload layer and of the layer call it makes.
void add_self_times(const Spans& spans, RunResult& r);

/// Self-test hook: true when this is the read the run must corrupt.
bool should_corrupt_read(const Args& args);

// Workloads. `spans` records the traced run; main writes it out at exit.
RunResult run_inproc(const Args& args, const Shape& shape, Spans& spans);
RunResult run_routed(const Args& args, const Shape& shape, Spans& spans);

}  // namespace perfbench
