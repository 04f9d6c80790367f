// Serving workloads: an in-process service::Server with shipped defaults,
// driven over a unix socket by two service::Client connections.
//
//   serve_lockstep  closed loop: 256 lockstep tenants on preset 0, a fixed
//                   window of 8192-code blocks in flight per tenant. The
//                   batch path (BatchGroup -> ChainBank) does the work.
//   serve_churn     open loop: 64 independent tenants at a fixed offered
//                   rate, seeded block lengths, preset and serialized
//                   configs, CONFIG / DRAIN / CLOSE->re-OPEN interleaved.
//                   Every frame runs the scalar DecimationChain.
//
// A run is 24 set-ups (server start, connect, OPEN of every tenant, every
// ACK; nothing streamed) for setup_s, then epochs. Each epoch sets up the
// same way, streams (the timed part), then tears down and checks every
// tenant's served samples against a per-tenant DecimationChain over the
// same segments. serve_lockstep runs epochs of fixed work (fresh clients
// per epoch keep the client-side sample buffers, and so the peak RSS,
// independent of throughput) until the run's seconds have streamed;
// serve_churn runs one epoch of the run's length at its fixed rate.
// Generator threads plus Client receiver threads stay at 4.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "bench.h"
#include "flow.h"
#include "ledger.h"
#include "src/core/flow.h"
#include "src/obs/obs.h"
#include "src/runtime/session.h"
#include "src/service/client.h"
#include "src/service/server.h"
#include "src/service/wire.h"
#include "src/verify/stimulus.h"

namespace perfbench {
namespace {

using namespace dsadc;
using service::FrameType;

constexpr std::size_t kConnections = 2;

enum class OpKind : std::uint8_t { kOpen, kConfig, kData, kDrain, kClose };

/// One client->server operation of a tenant's schedule and what became of
/// it. Written by the generator (sent_ns) and the connection's receiver
/// thread (done_ns, flags); read after both have been joined.
struct Op {
  OpKind kind = OpKind::kData;
  /// kOpen/kConfig: index into Workload::configs.
  std::uint32_t config = 0;
  /// kData: codes[offset, offset + len) of pool block `block`.
  std::uint32_t block = 0;
  std::uint32_t offset = 0;
  std::uint32_t len = 0;
  std::int64_t due_ns = 0;  ///< relative to the epoch's stream start
  std::int64_t sent_ns = 0;
  std::int64_t sent_end_ns = 0;
  std::int64_t done_ns = 0;
  bool errored = false;
  bool shed = false;
};

/// A config tenants can OPEN/CONFIG with: a preset id, or a full
/// ChainConfig sent serialized.
struct WireConfig {
  bool preset = true;
  std::uint32_t preset_id = 0;
  std::shared_ptr<const decim::ChainConfig> config;
};

struct Tenant {
  std::uint32_t channel = 0;
  bool lockstep = false;
  std::vector<Op> ops;
  /// Generator cursor and receiver cursor into `ops`.
  std::size_t next = 0;
  std::atomic<std::size_t> resp{0};
  /// Samples the server sent back (DATA_OUT payloads seen by the hook).
  std::atomic<std::size_t> samples_out{0};
  /// Expected output of each op (reference chain), filled at verify time;
  /// views into `owned` or into a workload-wide reference.
  std::vector<std::span<const std::int64_t>> expected;
  std::vector<std::vector<std::int64_t>> owned;
  /// Verdict per op, the digest of the verified outputs and a description
  /// of the first failure, from check_tenant.
  std::vector<char> ok;
  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::string failure;
};

/// Inputs of one workload: the code pool DATA ops slice, the configs, and
/// per epoch the tenant schedules.
struct Workload {
  std::vector<std::vector<std::int32_t>> pool;
  std::vector<WireConfig> configs;
  bool closed_loop = true;
  std::size_t window = 0;  ///< closed loop: DATA frames in flight per tenant
  bool corrupt_reference = false;
};

/// Per-connection state shared with the Client frame hook.
struct Conn {
  std::unique_ptr<service::Client> client;
  std::vector<std::unique_ptr<Tenant>> tenants;  ///< index = channel
  /// Closed loop: the order tenants are served in within a round.
  std::vector<std::size_t> send_order;
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<bool> waiting{false};
  std::atomic<std::uint64_t> desync{0};

  void on_frame(FrameType type, std::uint32_t ch, std::size_t payload_bytes) {
    if (ch >= tenants.size()) return;
    Tenant& t = *tenants[ch];
    if (type == FrameType::kDataOut) {
      t.samples_out.fetch_add(payload_bytes / sizeof(std::int64_t));
    }
    const std::size_t i = t.resp.load(std::memory_order_relaxed);
    if (i >= t.ops.size()) {
      desync.fetch_add(1);
      return;
    }
    Op& op = t.ops[i];
    bool complete = false;
    switch (type) {
      case FrameType::kAck:
        complete = op.kind == OpKind::kOpen || op.kind == OpKind::kConfig ||
                   op.kind == OpKind::kClose;
        break;
      case FrameType::kDataOut:
        if (op.kind == OpKind::kDrain) return;  // the drain's flush tail
        complete = op.kind == OpKind::kData;
        break;
      case FrameType::kDrained:
        complete = op.kind == OpKind::kDrain;
        break;
      case FrameType::kShed:
        op.shed = true;
        complete = true;
        break;
      case FrameType::kError:
        op.errored = true;
        complete = true;
        break;
      default:
        return;
    }
    if (!complete) {
      op.errored = true;
      desync.fetch_add(1);
    }
    op.done_ns = now_ns();
    t.resp.store(i + 1, std::memory_order_seq_cst);
    if (waiting.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lock(mu);
      cv.notify_all();
    }
  }

  /// Block until `pred` holds; the hook wakes us on every response.
  template <typename Pred>
  bool wait_for(Pred pred, std::chrono::milliseconds timeout) {
    if (pred()) return true;
    std::unique_lock<std::mutex> lock(mu);
    waiting.store(true, std::memory_order_seq_cst);
    const bool ok = cv.wait_for(lock, timeout, pred);
    waiting.store(false, std::memory_order_seq_cst);
    return ok;
  }
};

/// Sends `op` and stamps when the send started and returned.
bool send_op(Conn& c, const Tenant& t, Op& op, const Workload& w) {
  service::Client& cl = *c.client;
  op.sent_ns = now_ns();
  const bool ok = [&] {
    switch (op.kind) {
      case OpKind::kOpen:
      case OpKind::kConfig: {
        const WireConfig& wc = w.configs[op.config];
        if (op.kind == OpKind::kOpen) {
          return wc.preset ? cl.open(t.channel, wc.preset_id, t.lockstep)
                           : cl.open_config(t.channel, *wc.config, t.lockstep);
        }
        return wc.preset ? cl.reconfigure(t.channel, wc.preset_id)
                         : cl.reconfigure_config(t.channel, *wc.config);
      }
      case OpKind::kData:
        return cl.send_data(t.channel, std::span<const std::int32_t>(w.pool[op.block])
                                           .subspan(op.offset, op.len));
      case OpKind::kDrain:
        return cl.drain(t.channel);
      case OpKind::kClose:
        return cl.close_channel(t.channel);
    }
    return false;
  }();
  op.sent_end_ns = now_ns();
  return ok;
}

/// Closed loop: in rounds, one op per tenant per round, each tenant
/// keeping at most `window` ops unanswered. The two connections' senders
/// meet at a barrier after every round, so the lanes of a lockstep group
/// (which span both connections) are fed together, as bench_service paces
/// its senders.
void closed_loop_sender(Conn& c, const Workload& w, std::barrier<>& round) {
  bool alive = true;
  for (bool more = true; more;) {
    more = false;
    for (const std::size_t i : c.send_order) {
      Tenant& t = *c.tenants[i];
      if (!alive || t.next >= t.ops.size()) continue;
      more = true;
      alive = c.wait_for(
          [&] { return t.next - t.resp.load(std::memory_order_seq_cst) < w.window; },
          std::chrono::seconds(20));
      alive = alive && send_op(c, t, t.ops[t.next], w);
      if (alive) ++t.next;
    }
    if (more) round.arrive_and_wait();
  }
  round.arrive_and_drop();
}

/// Open loop: every op is sent when due, whether or not earlier ones
/// have been answered.
void open_loop_sender(Conn& c, const Workload& w, std::int64_t start_ns) {
  struct Due {
    std::int64_t due;
    Tenant* t;
  };
  std::vector<Due> order;
  for (auto& tp : c.tenants) {
    for (std::size_t i = tp->next; i < tp->ops.size(); ++i) {
      order.push_back(Due{tp->ops[i].due_ns, tp.get()});
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Due& a, const Due& b) { return a.due < b.due; });
  for (const Due& d : order) {
    const std::int64_t due = start_ns + d.due;
    const std::int64_t wait = due - now_ns();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    Tenant& t = *d.t;
    Op& op = t.ops[t.next];
    if (!send_op(c, t, op, w)) return;
    op.due_ns = due;  // absolute from here on
    ++t.next;
  }
}

std::string socket_path(const Args& args, int epoch) {
  return args.work_dir + "/srv-" + std::to_string(::getpid()) + "-" +
         std::to_string(epoch) + ".sock";
}

/// Reference outputs of every op of `t`, replaying the service lifecycle
/// on a scalar DecimationChain (docs/SERVICE.md): OPEN and CONFIG start a
/// fresh chain, DRAIN flushes drain_pad_frames zeros, CLOSE ends it.
void compute_expected(Tenant& t, const Workload& w) {
  t.expected.assign(t.ops.size(), {});
  t.owned.assign(t.ops.size(), {});
  std::unique_ptr<decim::DecimationChain> chain;
  for (std::size_t i = 0; i < t.ops.size(); ++i) {
    const Op& op = t.ops[i];
    switch (op.kind) {
      case OpKind::kOpen:
      case OpKind::kConfig:
        chain = std::make_unique<decim::DecimationChain>(
            *w.configs[op.config].config);
        break;
      case OpKind::kData:
        t.owned[i] = chain->process(std::span<const std::int32_t>(
            w.pool[op.block]).subspan(op.offset, op.len));
        break;
      case OpKind::kDrain: {
        const std::vector<std::int32_t> pad(
            runtime::SessionRuntime::drain_pad_frames(*chain), 0);
        t.owned[i] = chain->process(pad);
        break;
      }
      case OpKind::kClose:
        chain.reset();
        break;
    }
    t.expected[i] = t.owned[i];
  }
}

/// Compares the tenant's served samples with its reference outputs op by
/// op (stream order), then frees the reference. `corrupt` flips one
/// reference sample first.
void check_tenant(Tenant& t, const service::Client& client, bool corrupt) {
  const std::vector<std::int64_t> got = client.samples(t.channel);
  t.ok.assign(t.ops.size(), 0);
  std::size_t off = 0;
  for (std::size_t i = 0; i < t.next; ++i) {
    const Op& op = t.ops[i];
    std::span<const std::int64_t> want = t.expected[i];
    std::vector<std::int64_t> corrupted;
    if (corrupt && !want.empty()) {
      corrupted.assign(want.begin(), want.end());
      corrupted[corrupted.size() / 2] ^= 1;
      want = corrupted;
      corrupt = false;
    }
    bool ok = op.done_ns != 0 && !op.errored && !op.shed;
    if (ok && !want.empty()) {
      ok = off + want.size() <= got.size() &&
           std::equal(want.begin(), want.end(), got.begin() + static_cast<std::ptrdiff_t>(off));
      off += want.size();
    }
    t.ok[i] = ok ? 1 : 0;
    if (ok && op.kind == OpKind::kData) digest_samples(t.digest, want);
    if (!ok && t.failure.empty()) {
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "channel %u op %zu (kind %d): answered %d errored %d shed %d, "
                    "%zu samples expected at %zu of %zu",
                    t.channel, i, static_cast<int>(op.kind), op.done_ns != 0, op.errored,
                    op.shed, want.size(), off, got.size());
      t.failure = buf;
    }
  }
  t.expected = {};
  t.owned = {};
}

/// What one epoch contributes to the run's figures.
struct EpochStats {
  double setup_s = 0.0;
  double stream_s = 0.0;
  std::uint64_t exact_codes = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t backlog = 0;
  std::vector<std::pair<std::int64_t, double>> rtt_ms;  ///< (start, ms)
  std::vector<double> lag_ms;
};

/// Runs one epoch over `conns` (tenant schedules already filled) and
/// checks the served output. `expected_of(t)` fills t.expected.
template <typename ExpectedFn>
EpochStats run_epoch(const Args& args, int epoch, const Workload& w,
                     std::array<Conn, kConnections>& conns, Tracer* tr,
                     ExpectedFn expected_of, bool setup_only, Outcome& out) {
  EpochStats st;
  const auto t_setup = Clock::now();
  service::ServerOptions opts;
  opts.unix_path = socket_path(args, epoch);
  auto server = std::make_unique<service::Server>(opts);
  server->start();
  for (Conn& c : conns) {
    c.client = service::Client::connect_unix(opts.unix_path);
    c.client->set_frame_hook(
        [&c](FrameType type, std::uint32_t ch, std::uint32_t, std::size_t bytes) {
          c.on_frame(type, ch, bytes);
        });
  }
  bool setup_ok = true;
  for (Conn& c : conns) {
    for (auto& t : c.tenants) {
      setup_ok = send_op(c, *t, t->ops[0], w) && setup_ok;
      t->next = 1;
    }
  }
  for (Conn& c : conns) {
    setup_ok = c.wait_for(
                   [&] {
                     for (auto& t : c.tenants) {
                       if (t->resp.load() < 1) return false;
                     }
                     return true;
                   },
                   std::chrono::seconds(20)) &&
               setup_ok;
  }
  st.setup_s = seconds_since(t_setup);
  ++out.attempted;
  if (!setup_ok) {
    std::fprintf(stderr, "perfbench: epoch %d set-up failed\n", epoch);
    ++out.failed;
  }
  if (setup_only) {
    for (Conn& c : conns) c.client.reset();
    server->stop();
    std::filesystem::remove(opts.unix_path);
    return st;
  }

  // Stream.
  const std::int64_t start_ns = now_ns();
  std::barrier<> round(kConnections);
  const auto sender = [&](Conn& c) {
    if (w.closed_loop) {
      closed_loop_sender(c, w, round);
    } else {
      open_loop_sender(c, w, start_ns);
    }
  };
  std::thread second([&] { sender(conns[1]); });
  sender(conns[0]);
  second.join();
  for (Conn& c : conns) {
    for (auto& t : c.tenants) st.backlog += t->next - t->resp.load();
  }
  for (Conn& c : conns) {
    c.wait_for(
        [&] {
          for (auto& t : c.tenants) {
            if (t->resp.load() < t->next) return false;
          }
          return true;
        },
        std::chrono::seconds(30));
  }
  std::int64_t last_ns = start_ns;
  for (Conn& c : conns) {
    for (auto& t : c.tenants) {
      for (const Op& op : t->ops) last_ns = std::max(last_ns, op.done_ns);
    }
  }
  st.stream_s = static_cast<double>(last_ns - start_ns) * 1e-9;

  // Teardown and checks are untimed. The hook runs before the Client
  // stores a frame's samples, so first wait for the last ones to land.
  for (Conn& c : conns) {
    for (auto& t : c.tenants) {
      c.client->wait_sample_count(t->channel, t->samples_out.load(),
                                  std::chrono::seconds(10));
    }
    st.errors += c.client->errors().size();
  }
  server->stop();
  server.reset();
  std::filesystem::remove(opts.unix_path);

  // Reference output of every op of every tenant, checked against the
  // served samples tenant by tenant so only a few references are held.
  const bool obs_on = obs::enabled();
  obs::set_enabled(false);  // reference chains only; nothing is timed here
  {
    std::vector<std::pair<Tenant*, const service::Client*>> all;
    for (Conn& c : conns) {
      for (auto& t : c.tenants) all.emplace_back(t.get(), c.client.get());
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (int k = 0; k < 4; ++k) {
      pool.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < all.size();) {
          expected_of(*all[i].first);
          check_tenant(*all[i].first, *all[i].second, w.corrupt_reference && i == 0);
        }
      });
    }
    for (auto& th : pool) th.join();
  }
  obs::set_enabled(obs_on);

  for (std::size_t ci = 0; ci < kConnections; ++ci) {
    Conn& c = conns[ci];
    st.errors += c.desync.exchange(0);
    for (std::size_t ti = 0; ti < c.tenants.size(); ++ti) {
      Tenant& t = *c.tenants[ti];
      digest_bytes(out.digest, &t.digest, sizeof t.digest);
      if (!t.failure.empty() && out.failed < 5) {
        std::fprintf(stderr, "perfbench: epoch %d connection %zu: %s\n", epoch, ci,
                     t.failure.c_str());
      }
      for (std::size_t i = 0; i < t.ops.size(); ++i) {
        const Op& op = t.ops[i];
        const bool ok = t.ok[i] != 0;  // an op never sent counts as failed
        ++out.attempted;
        if (!ok) ++out.failed;
        if (i >= t.next) continue;
        if (op.shed) ++st.shed;
        if (op.kind != OpKind::kData) continue;
        ++st.frames_sent;
        if (op.done_ns != 0 && !op.errored && !op.shed) ++st.frames_out;
        if (ok) st.exact_codes += op.len;
        if (op.done_ns != 0) {
          const std::int64_t from = w.closed_loop ? op.sent_ns : op.due_ns;
          st.rtt_ms.emplace_back(from, static_cast<double>(op.done_ns - from) * 1e-6);
          if (tr != nullptr) {
            const std::uint64_t id = (static_cast<std::uint64_t>(ci) << 56) |
                                     (static_cast<std::uint64_t>(t.channel) << 32) | i;
            const auto f = tr->record("frame", id, Tracer::kNoParent, from, op.done_ns);
            tr->record("client.send", id, f, op.sent_ns, op.sent_end_ns);
          }
        }
      }
      // Generator lateness: open loop, from the op's due time; closed
      // loop, from when its window slot freed (the answer `window` ops
      // back) or the stream started.
      for (std::size_t i = 1; i < t.next; ++i) {
        std::int64_t due = t.ops[i].due_ns;
        if (w.closed_loop) {
          due = i > w.window ? std::max(start_ns, t.ops[i - w.window].done_ns) : start_ns;
        }
        st.lag_ms.push_back(static_cast<double>(t.ops[i].sent_ns - due) * 1e-6);
      }
    }
  }
  for (Conn& c : conns) c.client.reset();
  return st;
}

/// Accumulated epochs of one pass.
struct PassStats {
  std::vector<double> setup_s;
  std::vector<double> epoch_s;
  std::vector<double> epoch_mcodes_s;
  double stream_s = 0.0;
  std::uint64_t exact_codes = 0;
  std::uint64_t frames_sent = 0, frames_out = 0, shed = 0, errors = 0;
  std::uint64_t backlog = 0;
  std::vector<std::pair<std::int64_t, double>> rtt_ms;
  std::vector<double> lag_ms;

  void add(EpochStats&& e) {
    setup_s.push_back(e.setup_s);
    epoch_s.push_back(e.stream_s);
    epoch_mcodes_s.push_back(static_cast<double>(e.exact_codes) / e.stream_s / 1e6);
    stream_s += e.stream_s;
    exact_codes += e.exact_codes;
    frames_sent += e.frames_sent;
    frames_out += e.frames_out;
    shed += e.shed;
    errors += e.errors;
    backlog = std::max(backlog, e.backlog);
    rtt_ms.insert(rtt_ms.end(), e.rtt_ms.begin(), e.rtt_ms.end());
    lag_ms.insert(lag_ms.end(), e.lag_ms.begin(), e.lag_ms.end());
  }
  double mcodes_s() const {
    return stream_s > 0.0 ? static_cast<double>(exact_codes) / stream_s / 1e6 : 0.0;
  }
};

/// Builds the tenant schedules of epoch `e` into `conns`.
using ScheduleFn = std::function<void(int e, std::array<Conn, kConnections>&)>;
using ExpectedFn = std::function<void(Tenant&)>;

/// Set-ups per run: a few milliseconds each, so the median needs many.
constexpr int kSetups = 24;

/// `kSetups` set-ups (server start, connect, OPEN and every ACK) with
/// nothing streamed, then epochs until `budget_s` of streaming and at
/// least `min_epochs` ran. setup_s is the median over all of them.
PassStats run_pass(const Args& args, const Workload& w, const ScheduleFn& schedule,
                   const ExpectedFn& expected, double budget_s, int min_epochs,
                   int first_epoch, Tracer* tr, Outcome& out) {
  PassStats p;
  std::vector<double> setups;
  for (int k = 0; k < (args.short_mode ? 1 : kSetups); ++k) {
    std::array<Conn, kConnections> conns;
    schedule(first_epoch, conns);
    setups.push_back(
        run_epoch(args, first_epoch + 500 + k, w, conns, nullptr, expected, true, out).setup_s);
  }
  for (int e = first_epoch;
       static_cast<int>(p.epoch_s.size()) < min_epochs || p.stream_s < budget_s; ++e) {
    std::array<Conn, kConnections> conns;
    schedule(e, conns);
    p.add(run_epoch(args, e, w, conns, tr, expected, false, out));
  }
  p.setup_s.insert(p.setup_s.end(), setups.begin(), setups.end());
  return p;
}

void report_e2e(const PassStats& p, Outcome& out) {
  // Median over epochs, so a host stall during one epoch does not move it.
  out.set_summary("throughput_mcodes_s", summarize(p.epoch_mcodes_s), "Mcodes/s");
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "%llu bit-exact codes over %.3f s streaming in %zu epochs",
                static_cast<unsigned long long>(p.exact_codes), p.stream_s,
                p.epoch_s.size());
  out.note(buf);
  set_rtt_metrics(p.rtt_ms, out);
  // The serving counterpart of a sweep: one epoch's streaming wall time.
  out.set_summary("flow_wall_s", summarize(p.epoch_s), "s");
  out.set_summary("setup_s", summarize(p.setup_s), "s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
}

std::vector<std::int32_t> to_codes(const std::vector<std::int64_t>& raw) {
  return std::vector<std::int32_t>(raw.begin(), raw.end());
}

/// Traced run: an untraced and a traced half, then the module replays.
void traced_run(const Args& args, const Workload& w, const ScheduleFn& schedule,
                const ExpectedFn& expected, LedgerInputs in, Outcome& out) {
  const PassStats plain = run_pass(args, w, schedule, expected, args.seconds / 2,
                                   1, 0, nullptr, out);
  Tracer tracer;
  const PassStats traced = run_pass(args, w, schedule, expected, args.seconds / 2,
                                    1, 1000, &tracer, out);
  // Closed loop: throughput lost; open loop (fixed rate): latency added.
  const auto p50 = [](const PassStats& p) {
    std::vector<double> ms;
    for (const auto& f : p.rtt_ms) ms.push_back(f.second);
    return summarize(std::move(ms)).median;
  };
  out.set("bench.trace_overhead_frac",
          w.closed_loop ? (plain.mcodes_s() - traced.mcodes_s()) / plain.mcodes_s()
                        : (p50(traced) - p50(plain)) / p50(plain),
          "ratio");
  out.set("service.frames_sent", static_cast<double>(traced.frames_sent), "count");
  out.set("service.frames_out", static_cast<double>(traced.frames_out), "count");
  out.set("service.shed", static_cast<double>(traced.shed), "count");
  out.set("service.errors", static_cast<double>(traced.errors), "count");
  set_loadgen_metrics(traced.lag_ms, static_cast<double>(traced.backlog), out);
  in.service_mcodes_s = plain.mcodes_s();

  Signoff signoff(args.seed, 4, 4096, false);
  bool ok = false;
  const std::string dir = fresh_cache_dir(args.work_dir, 0);
  const double compile_s = signoff.setup(dir, &ok);
  ++out.attempted;
  if (!ok) ++out.failed;
  measure_ledger(args, in, signoff, compile_s, nullptr, 0.0, out);
  std::filesystem::remove_all(dir);
  tracer.write(args.work_dir + "/trace-" + args.workload + "-" +
               std::to_string(args.seed) + ".json");
}

}  // namespace

// --- serve_lockstep ---------------------------------------------------------

void run_serve_lockstep(const Args& args, Outcome& out) {
  constexpr std::size_t kTenantsPerConn = 128;
  constexpr std::size_t kStreams = 32;
  constexpr std::size_t kBlock = 8192;
  const std::size_t blocks = args.short_mode ? 4 : 32;  // per tenant per epoch

  Workload w;
  w.closed_loop = true;
  w.window = 4;  // below the batch path's straggler bound (8 blocks)
  w.corrupt_reference = args.corrupt_reference;
  w.configs.push_back(WireConfig{true, 0, service::preset_config(0)});
  // Stream k is blocks [k*blocks, (k+1)*blocks) of the pool.
  std::mt19937_64 rng(args.seed * 0x9e3779b97f4a7c15ull + 11);
  for (std::size_t i = 0; i < kStreams * blocks; ++i) {
    const auto cls = verify::random_stimulus_class(rng);
    w.pool.push_back(
        to_codes(verify::make_stimulus(cls, kBlock, fx::Format{4, 0}, rng)));
  }
  // The reference of a stream does not depend on the epoch: compute once.
  std::vector<std::vector<std::vector<std::int64_t>>> ref(kStreams);
  {
    const bool obs_on = obs::enabled();
    obs::set_enabled(false);
    for (std::size_t k = 0; k < kStreams; ++k) {
      decim::DecimationChain chain(*w.configs[0].config);
      for (std::size_t b = 0; b < blocks; ++b) {
        ref[k].push_back(chain.process(w.pool[k * blocks + b]));
      }
    }
    obs::set_enabled(obs_on);
  }

  // Tenant (c, ch) streams (ch + ch/16 + 8c + e) mod 32: the 16 lanes a
  // default 16-shard server groups together (same ch mod 16, both
  // connections) all carry different streams, so a lane mix-up shows.
  const auto stream_of = [](std::size_t c, std::size_t ch, int e) {
    return (ch + ch / 16 + 8 * c + static_cast<std::size_t>(e)) % kStreams;
  };
  const ScheduleFn schedule = [&](int e, std::array<Conn, kConnections>& conns) {
    for (std::size_t c = 0; c < kConnections; ++c) {
      for (std::size_t ch = 0; ch < kTenantsPerConn; ++ch) {
        auto t = std::make_unique<Tenant>();
        t->channel = static_cast<std::uint32_t>(ch);
        t->lockstep = true;
        t->ops.push_back(Op{OpKind::kOpen, 0, 0, 0, 0});
        const std::size_t k = stream_of(c, ch, e);
        for (std::size_t b = 0; b < blocks; ++b) {
          t->ops.push_back(Op{OpKind::kData, 0,
                              static_cast<std::uint32_t>(k * blocks + b), 0,
                              static_cast<std::uint32_t>(kBlock)});
        }
        conns[c].tenants.push_back(std::move(t));
      }
      // Group-major round order: the 8 lanes a group has on this
      // connection get their blocks back to back, so no lane of a sealed
      // group waits a whole round for its peers.
      for (std::size_t g = 0; g < 16; ++g) {
        for (std::size_t ch = g; ch < kTenantsPerConn; ch += 16) {
          conns[c].send_order.push_back(ch);
        }
      }
    }
  };
  const ExpectedFn expected = [&](Tenant& t) {
    t.expected.assign(t.ops.size(), {});
    for (std::size_t i = 1; i < t.ops.size(); ++i) {
      const std::size_t k = t.ops[i].block / blocks;
      t.expected[i] = ref[k][t.ops[i].block % blocks];
    }
  };

  if (args.short_mode || !args.trace) {
    report_e2e(run_pass(args, w, schedule, expected, args.short_mode ? 0.0 : args.seconds,
                        args.short_mode ? 1 : 3, 0, nullptr, out),
               out);
    return;
  }
  LedgerInputs in;
  for (std::size_t b = 0; b < std::min<std::size_t>(w.pool.size(), 64); ++b) {
    in.blocks.push_back(w.pool[b]);
  }
  in.config_blobs = paper_config_blobs();
  in.jobs = lockstep_jobs(in.blocks, 256, 8);
  traced_run(args, w, schedule, expected, std::move(in), out);
}

// --- serve_churn ------------------------------------------------------------

void run_serve_churn(const Args& args, Outcome& out) {
  constexpr std::size_t kTenants = 64;
  constexpr std::size_t kPool = 64;
  constexpr std::size_t kBlockMax = 8192;
  // Lifecycle mix per scheduled op: CONFIG, DRAIN and CLOSE->re-OPEN.
  constexpr double kConfigP = 0.02, kDrainP = 0.02, kReopenP = 0.02;

  Workload w;
  w.closed_loop = false;
  w.corrupt_reference = args.corrupt_reference;
  std::mt19937_64 rng(args.seed * 0x9e3779b97f4a7c15ull + 23);
  for (std::size_t i = 0; i < kPool; ++i) {
    const auto cls = verify::random_stimulus_class(rng);
    w.pool.push_back(
        to_codes(verify::make_stimulus(cls, kBlockMax, fx::Format{4, 0}, rng)));
  }
  // Presets 0 and 1, then the paper chain and the W-CDMA and WiMAX designs
  // as serialized configs.
  w.configs.push_back(WireConfig{true, 0, service::preset_config(0)});
  w.configs.push_back(WireConfig{true, 1, service::preset_config(1)});
  w.configs.push_back(WireConfig{
      false, 0, std::make_shared<const decim::ChainConfig>(decim::paper_chain_config())});
  for (const FlowSpec& s : flow_specs()) {
    if (std::string(s.name) == "lte20") continue;
    w.configs.push_back(WireConfig{
        false, 0,
        std::make_shared<const decim::ChainConfig>(core::DesignFlow::design(s.m, s.d).chain)});
  }
  std::vector<bool> preset_tenant(kTenants, false);
  {
    std::vector<std::size_t> perm(kTenants);
    for (std::size_t i = 0; i < kTenants; ++i) perm[i] = i;
    std::shuffle(perm.begin(), perm.end(), rng);
    for (std::size_t i = 0; i < kTenants / 2; ++i) preset_tenant[perm[i]] = true;
  }

  const double rate = args.churn_mcodes_s * 1e6 / static_cast<double>(kTenants);
  // One epoch of the run's length (half of it in each half of a traced
  // run).
  double epoch_s = args.short_mode ? 0.25 : args.seconds;
  const ScheduleFn schedule = [&, rate](int e, std::array<Conn, kConnections>& conns) {
    std::mt19937_64 r(args.seed * 0x2545f4914f6cdd1dull + static_cast<std::uint64_t>(e));
    const auto pick_config = [&](std::size_t tenant) {
      return preset_tenant[tenant] ? static_cast<std::uint32_t>(r() % 2)
                                   : static_cast<std::uint32_t>(2 + r() % 3);
    };
    const auto horizon = static_cast<std::int64_t>(epoch_s * 1e9);
    for (std::size_t i = 0; i < kTenants; ++i) {
      auto t = std::make_unique<Tenant>();
      t->channel = static_cast<std::uint32_t>(i / kConnections);
      t->ops.push_back(Op{OpKind::kOpen, pick_config(i), 0, 0, 0});
      auto cursor = static_cast<std::int64_t>(
          std::uniform_real_distribution<double>(0.0, 4096.0 / rate)(r) * 1e9);
      while (cursor < horizon) {
        const double u = std::uniform_real_distribution<double>(0.0, 1.0)(r);
        if (u < kConfigP) {
          t->ops.push_back(Op{OpKind::kConfig, pick_config(i), 0, 0, 0, cursor});
        } else if (u < kConfigP + kDrainP) {
          t->ops.push_back(Op{OpKind::kDrain, 0, 0, 0, 0, cursor});
        } else if (u < kConfigP + kDrainP + kReopenP) {
          t->ops.push_back(Op{OpKind::kClose, 0, 0, 0, 0, cursor});
          t->ops.push_back(Op{OpKind::kOpen, pick_config(i), 0, 0, 0, cursor});
        } else {
          // 256..8192 codes, log-uniform, in steps of 64: a whole number of
          // output samples for every config (total decimation 16 or 32).
          const double u_len = std::uniform_real_distribution<double>(0.0, 1.0)(r);
          const auto len = static_cast<std::uint32_t>(
              64 * std::lround(4.0 * std::pow(32.0, u_len)));
          const auto off = static_cast<std::uint32_t>(64 * (r() % ((kBlockMax - len) / 64 + 1)));
          const auto blk = static_cast<std::uint32_t>(r() % kPool);
          t->ops.push_back(Op{OpKind::kData, 0, blk, off, len, cursor});
          cursor += static_cast<std::int64_t>(static_cast<double>(len) / rate * 1e9);
        }
      }
      conns[i % kConnections].tenants.push_back(std::move(t));
    }
  };
  const ExpectedFn expected = [&](Tenant& t) { compute_expected(t, w); };

  if (args.short_mode || !args.trace) {
    report_e2e(run_pass(args, w, schedule, expected, 0.0, 1, 0, nullptr, out), out);
    return;
  }
  epoch_s = args.seconds / 2;
  LedgerInputs in;
  {
    // The ledger replays the start of one epoch's job sequence.
    std::array<Conn, kConnections> conns;
    schedule(0, conns);
    std::vector<std::shared_ptr<const decim::ChainConfig>> cfgs;
    for (const auto& wc : w.configs) {
      cfgs.push_back(wc.config);
      if (!wc.preset) in.config_blobs.push_back(service::encode_chain_config(*wc.config));
    }
    // The first 24 ops of every tenant: over 1000 DATA jobs, every
    // lifecycle kind, and a replay of a few seconds.
    std::uint32_t session = 0;
    for (const Conn& c : conns) {
      for (const auto& t : c.tenants) {
        for (std::size_t i = 0; i < std::min<std::size_t>(24, t->ops.size()); ++i) {
          const Op& op = t->ops[i];
          ReplayJob j;
          j.session = session;
          switch (op.kind) {
            case OpKind::kOpen: j.op = runtime::SessionOp::kOpen; break;
            case OpKind::kConfig: j.op = runtime::SessionOp::kReconfigure; break;
            case OpKind::kData: j.op = runtime::SessionOp::kData; break;
            case OpKind::kDrain: j.op = runtime::SessionOp::kDrain; break;
            case OpKind::kClose: j.op = runtime::SessionOp::kClose; break;
          }
          j.config = cfgs[op.config];
          j.due_ns = op.due_ns;
          if (op.kind == OpKind::kData) {
            j.block = in.blocks.size();
            in.blocks.push_back(std::vector<std::int32_t>(
                w.pool[op.block].begin() + op.offset,
                w.pool[op.block].begin() + op.offset + op.len));
          }
          in.jobs.push_back(std::move(j));
        }
        ++session;
      }
    }
  }
  traced_run(args, w, schedule, expected, std::move(in), out);
}

}  // namespace perfbench
