// See codegen.h. Two halves: emit_source() renders a CompiledSimulator's
// elaborated tape into a self-contained C++ translation unit with one
// entry point, and build_kernel() drives compile/cache/dlopen with
// graceful failure.
#include "src/rtl/codegen.h"

#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/rtl/compiled_sim.h"

extern char** environ;

namespace dsadc::rtl::codegen {
namespace {

namespace fs = std::filesystem;

// Bumped whenever the emitted-source contract or compile flags change, so
// stale cache entries from older schema versions never load. v2: one entry
// point per source and object.
constexpr const char* kSchemaTag = "dsadc-codegen-v2";

// -mpopcnt keeps the activity kernel's per-op __builtin_popcountll as one
// instruction instead of a libgcc call that clobbers the register-resident
// value slots (every x86-64 since Nehalem has POPCNT; other arches lower
// the builtin natively without a flag).
const char* const kCompileFlags[] = {"-std=c++17", "-O2", "-fPIC", "-shared",
#if defined(__x86_64__) || defined(__i386__)
                                     "-mpopcnt",
#endif
};

// Guard rail for hand-built pathological netlists: straight-line emission
// is linear in ops-per-period, and beyond this cap compile times stop
// being a sane one-time cost. The paper chain sits near 1.6k.
constexpr std::size_t kMaxEmittedStatements = 200000;

bool env_is(const char* name, std::initializer_list<const char*> values) {
  const char* v = std::getenv(name);
  if (v == nullptr) return false;
  for (const char* want : values) {
    if (std::strcmp(v, want) == 0) return true;
  }
  return false;
}

std::string path_lookup(const std::string& name) {
  if (name.find('/') != std::string::npos) {
    return ::access(name.c_str(), X_OK) == 0 ? name : std::string();
  }
  const char* path = std::getenv("PATH");
  if (path == nullptr) return {};
  std::istringstream dirs(path);
  std::string dir;
  while (std::getline(dirs, dir, ':')) {
    if (dir.empty()) continue;
    const std::string cand = dir + "/" + name;
    if (::access(cand.c_str(), X_OK) == 0) return cand;
  }
  return {};
}

/// DSADC_CODEGEN_CXX wins (even when bogus: a missing override simulates a
/// compiler-less host); otherwise the usual suspects on PATH.
std::string find_compiler(std::string* error) {
  if (const char* env = std::getenv("DSADC_CODEGEN_CXX")) {
    const std::string resolved = path_lookup(env);
    if (resolved.empty()) {
      *error = std::string("DSADC_CODEGEN_CXX is not an executable: ") + env;
    }
    return resolved;
  }
  for (const char* cand : {"c++", "g++", "clang++"}) {
    const std::string resolved = path_lookup(cand);
    if (!resolved.empty()) return resolved;
  }
  *error = "no C++ compiler found on PATH";
  return {};
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string unique_suffix() {
  static std::atomic<std::uint64_t> counter{0};
  return std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

bool write_atomic(const std::string& path, const std::string& content,
                  std::string* error) {
  const std::string tmp = path + ".tmp." + unique_suffix();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << content;
    if (!out) {
      *error = "cannot write " + tmp;
      ::unlink(tmp.c_str());
      return false;
    }
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    *error = "cannot rename " + tmp + " -> " + path;
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

std::string first_log_line(const std::string& log_path) {
  std::ifstream in(log_path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) return line.substr(0, 200);
  }
  return {};
}

bool run_compiler(const std::string& cxx, const std::string& src,
                  const std::string& out, std::string* error) {
  const std::string log = out + ".log";
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);

  std::vector<std::string> args;
  args.push_back(cxx);
  for (const char* f : kCompileFlags) args.emplace_back(f);
  args.emplace_back("-o");
  args.push_back(out);
  args.push_back(src);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_t pid = 0;
  const int rc =
      ::posix_spawn(&pid, cxx.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    *error = "cannot spawn " + cxx + ": " + std::strerror(rc);
    ::unlink(log.c_str());
    return false;
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::string diag = first_log_line(log);
    *error = "compiler failed" + (diag.empty() ? "" : ": " + diag);
    ::unlink(log.c_str());
    return false;
  }
  ::unlink(log.c_str());
  return true;
}

std::shared_ptr<CompiledKernel> load_kernel(const std::string& so_path,
                                            const char* symbol,
                                            std::string* error) {
  void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    const char* err = ::dlerror();
    *error = err != nullptr ? err : "dlopen failed";
    return nullptr;
  }
  void* entry = ::dlsym(handle, symbol);
  if (entry == nullptr) {
    *error = std::string("entry point ") + symbol + " missing from " + so_path;
    ::dlclose(handle);
    return nullptr;
  }
  return std::make_shared<CompiledKernel>(handle, entry);
}

}  // namespace

CompiledKernel::~CompiledKernel() {
  if (handle_ != nullptr) ::dlclose(handle_);
}

const char* entry_symbol(Entry entry) {
  return entry == Entry::kRunActivity ? "dsadc_cg_run_activity"
                                      : "dsadc_cg_run";
}

bool enabled_by_env() { return env_is("DSADC_CODEGEN", {"on", "1", "true"}); }

bool disabled_by_env() {
  return env_is("DSADC_CODEGEN", {"off", "0", "false"});
}

std::string cache_dir() {
  if (const char* env = std::getenv("DSADC_CODEGEN_CACHE_DIR")) return env;
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
         "/dsadc-codegen";
}

BuildResult build_kernel(const std::string& source, const char* symbol) {
  BuildResult res;
  std::string error;
  const std::string cxx = find_compiler(&error);
  if (cxx.empty()) {
    res.detail = error;
    return res;
  }

  const std::string dir = cache_dir();
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    res.detail = "cannot create cache dir " + dir + ": " + ec.message();
    return res;
  }

  // Content hash over schema + compiler identity + flags + source: any
  // change to the emitted code or the toolchain yields a fresh object.
  std::uint64_t h = fnv1a(0xcbf29ce484222325ull, kSchemaTag);
  h = fnv1a(h, cxx);
  for (const char* f : kCompileFlags) h = fnv1a(h, f);
  h = fnv1a(h, source);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  const std::string base = dir + "/cg_" + hex;
  res.so_path = base + ".so";

  // Cache probe; a cached object that fails to load (truncated write,
  // schema from a dead toolchain, deliberate corruption in tests) is
  // evicted and rebuilt once.
  if (::access(res.so_path.c_str(), R_OK) == 0) {
    if (auto kernel = load_kernel(res.so_path, symbol, &error)) {
      res.kernel = std::move(kernel);
      res.cache_hit = true;
      return res;
    }
    ::unlink(res.so_path.c_str());
    res.evicted = true;
  }

  const std::string cpp = base + ".cpp";
  if (!write_atomic(cpp, source, &error)) {
    res.detail = error;
    return res;
  }
  const std::string tmp_so = base + ".so.tmp." + unique_suffix();
  if (!run_compiler(cxx, cpp, tmp_so, &error)) {
    res.detail = error;
    ::unlink(tmp_so.c_str());
    return res;
  }
  if (::rename(tmp_so.c_str(), res.so_path.c_str()) != 0) {
    res.detail = "cannot rename " + tmp_so + " -> " + res.so_path;
    ::unlink(tmp_so.c_str());
    return res;
  }
  if (auto kernel = load_kernel(res.so_path, symbol, &error)) {
    res.kernel = std::move(kernel);
    return res;
  }
  res.detail = "freshly built kernel failed to load: " + error;
  return res;
}

// ---------------------------------------------------------------------------
// Emitter. The generated unit keeps every value slot and state slot in a
// local variable (the compiler register-allocates the hot ones and spills
// the rest to the stack frame -- no indexed loads through the tape), every
// wrap shift and requantizer constant folded to a literal, and the whole
// period laid out as straight-line code: tick 0 runs phase 0 plus the
// one-time constant commits, then an unrolled-period loop covers phases
// 1..P-1, 0, 1, ... with one tick-count guard per phase.
// ---------------------------------------------------------------------------

/// The one befriended window into CompiledSimulator's elaborated tape.
struct EmitAccess {
  using Op = CompiledSimulator::Op;
  using Phase = CompiledSimulator::Phase;
  using RequantParams = CompiledSimulator::RequantParams;
  static const std::vector<Phase>& phases(const CompiledSimulator& s) {
    return s.phases_;
  }
  static const std::vector<RequantParams>& requants(
      const CompiledSimulator& s) {
    return s.requants_;
  }
  static const std::vector<std::int64_t>& const_values(
      const CompiledSimulator& s) {
    return s.const_values_;
  }
  static const std::vector<std::int32_t>& const_slots(
      const CompiledSimulator& s) {
    return s.const_slots_;
  }
  static const std::vector<std::uint8_t>& const_widths(
      const CompiledSimulator& s) {
    return s.const_widths_;
  }
  static std::size_t input_count(const CompiledSimulator& s) {
    return s.input_nodes_.size();
  }
  static std::size_t output_count(const CompiledSimulator& s) {
    return s.output_nodes_.size();
  }
  static std::size_t node_count(const CompiledSimulator& s) {
    return s.node_count_;
  }
  static std::size_t state_count(const CompiledSimulator& s) {
    return s.state_count_;
  }
  static int period(const CompiledSimulator& s) { return s.period_; }
};

namespace {

std::uint64_t width_mask(int width) {
  return width >= 64 ? ~std::uint64_t{0}
                     : ((std::uint64_t{1} << width) - 1);
}

class Emitter {
 public:
  explicit Emitter(const CompiledSimulator& sim) : sim_(sim) {}

  EmitResult emit(Entry which) {
    EmitResult out;
    const std::string refusal = refuse_reason();
    if (!refusal.empty()) {
      out.error = refusal;
      return out;
    }
    const bool activity = which == Entry::kRunActivity;
    preamble(activity);
    entry(activity);
    out.source = os_.str();
    return out;
  }

 private:
  using Op = EmitAccess::Op;
  using Phase = EmitAccess::Phase;

  std::string refuse_reason() const {
    std::size_t statements = EmitAccess::const_slots(sim_).size();
    for (const Phase& phase : EmitAccess::phases(sim_)) {
      statements += phase.captures.size() + phase.ops.size();
    }
    if (statements > kMaxEmittedStatements) {
      return "tape too large for straight-line emission (" +
             std::to_string(statements) + " statements/period)";
    }
    // Requant sites whose scalar semantics throw at run time (or whose
    // format check_format rejects) stay on the tape engine so the throw
    // still happens.
    for (const auto& rq : EmitAccess::requants(sim_)) {
      if (rq.fmt.width < 1 || rq.fmt.width > 62) {
        return "requant format width outside [1, 62]";
      }
      const int shift = rq.src_frac - rq.fmt.frac;
      if (shift < 0 && -shift >= 63) {
        return "requant up-shift would throw at run time";
      }
    }
    return {};
  }

  void preamble(bool activity) {
    os_ << "// Generated by dsadc::rtl::codegen (" << kSchemaTag
        << ") -- do not edit.\n"
           "#include <cstdint>\n"
           "typedef std::int64_t i64;\n"
           "typedef std::uint64_t u64;\n"
           "static inline i64 w(i64 v, int s) {\n"
           "  return (i64)((u64)v << s) >> s;\n"
           "}\n";
    if (activity) {
      os_ << "static inline u64 pc(i64 a, i64 b, u64 m) {\n"
             "  return (u64)__builtin_popcountll(((u64)a ^ (u64)b) & m);\n"
             "}\n";
    }
  }

  void entry(bool activity) {
    os_ << "\nextern \"C\" void "
        << entry_symbol(activity ? Entry::kRunActivity : Entry::kRun)
        << "(u64 ticks, const i64* const* in, i64* const* out"
        << (activity ? ", u64* tg" : "") << ") {\n"
        << "  if (ticks == 0) return;\n";
    // Stream pointers and local cursors, one pair per input/output.
    for (std::size_t i = 0; i < EmitAccess::input_count(sim_); ++i) {
      os_ << "  const i64* const ip" << i << " = in[" << i << "]; u64 ic" << i
          << " = 0; (void)ip" << i << "; (void)ic" << i << ";\n";
    }
    for (std::size_t i = 0; i < EmitAccess::output_count(sim_); ++i) {
      os_ << "  i64* const op" << i << " = out[" << i << "]; u64 oc" << i
          << " = 0; (void)op" << i << "; (void)oc" << i << ";\n";
    }
    // Value slots (v0 is the pinned zero) and register/decimate state.
    os_ << "  const i64 v0 = 0; (void)v0;\n";
    declare_locals("v", EmitAccess::node_count(sim_), /*base=*/1);
    declare_locals("s", EmitAccess::state_count(sim_), /*base=*/0);

    // Tick 0: phase 0 captures first (they read the initial zeros), then
    // the one-time constant commits, then phase 0's ops.
    os_ << "  // tick 0 (phase 0 + constant commits)\n  {\n";
    const auto& phases = EmitAccess::phases(sim_);
    const auto& const_slots = EmitAccess::const_slots(sim_);
    const auto& const_values = EmitAccess::const_values(sim_);
    const auto& const_widths = EmitAccess::const_widths(sim_);
    emit_captures(phases[0]);
    for (std::size_t i = 0; i < const_slots.size(); ++i) {
      const auto slot = static_cast<std::size_t>(const_slots[i]);
      if (activity) {
        os_ << "    tg[" << (slot - 1) << "] += pc(v" << slot << ", "
            << lit(const_values[i]) << ", " << mask_lit(const_widths[i])
            << ");\n";
      }
      os_ << "    v" << slot << " = " << lit(const_values[i]) << ";\n";
    }
    for (const Op& op : phases[0].ops) emit_op(op, activity);
    os_ << "  }\n";

    // Steady state: phases 1..P-1 then 0, straight-line, one guard each.
    os_ << "  u64 t = 1;\n  for (;;) {\n";
    const int period = EmitAccess::period(sim_);
    for (int k = 1; k <= period; ++k) {
      const int p = k % period;
      os_ << "    if (t == ticks) break;\n";
      os_ << "    { // phase " << p << "\n";
      emit_captures(phases[static_cast<std::size_t>(p)]);
      for (const Op& op : phases[static_cast<std::size_t>(p)].ops) {
        emit_op(op, activity);
      }
      os_ << "    }\n    ++t;\n";
    }
    os_ << "  }\n}\n";
  }

  void declare_locals(const char* prefix, std::size_t count,
                      std::size_t base) {
    for (std::size_t i = 0; i < count; ++i) {
      if (i % 16 == 0) os_ << (i == 0 ? "  i64 " : ";\n  i64 ");
      else os_ << ", ";
      os_ << prefix << (base + i) << " = 0";
    }
    if (count > 0) os_ << ";\n";
    for (std::size_t i = 0; i < count; ++i) {
      if (i % 16 == 0) os_ << (i == 0 ? "  (void)" : "; (void)");
      else os_ << "; (void)";
      os_ << prefix << (base + i);
    }
    if (count > 0) os_ << ";\n";
  }

  void emit_captures(const Phase& phase) {
    for (const auto& cap : phase.captures) {
      os_ << "    s" << cap.state << " = v" << cap.src << ";\n";
    }
  }

  static std::string lit(std::int64_t v) {
    // INT64_MIN has no negatable literal form; every IR constant fits in
    // 62 bits, but stay safe anyway.
    if (v == std::numeric_limits<std::int64_t>::min()) {
      return "(-9223372036854775807LL - 1)";
    }
    return std::to_string(v) + "LL";
  }

  static std::string mask_lit(int width) {
    std::ostringstream m;
    m << "0x" << std::hex << width_mask(width) << "ULL";
    return m.str();
  }

  /// The pure value expression for ops that are a single expression; the
  /// multi-statement kinds (kRequant, kOutput) are handled in emit_op.
  std::string expr(const Op& op) const {
    const std::string a = "v" + std::to_string(op.a);
    const std::string b = "v" + std::to_string(op.b);
    const std::string ws = std::to_string(static_cast<int>(op.wrap_shift));
    switch (op.kind) {
      case OpKind::kInput:
        return "w(ip" + std::to_string(op.aux) + "[ic" +
               std::to_string(op.aux) + "++], " + ws + ")";
      case OpKind::kReg:
      case OpKind::kDecimate:
        return "s" + std::to_string(op.aux);
      case OpKind::kAdd:
        return "w(" + a + " + " + b + ", " + ws + ")";
      case OpKind::kSub:
        return "w(" + a + " - " + b + ", " + ws + ")";
      case OpKind::kNeg:
        return "w(-" + a + ", " + ws + ")";
      case OpKind::kShl:
        // Same bit pattern as the tape's signed shift, expressed on u64 so
        // the generated unit is UB-free regardless of sanitizer flags.
        return "(i64)((u64)" + a + " << " +
               std::to_string(static_cast<int>(op.shift)) + ")";
      case OpKind::kShr:
        return a + " >> " + std::to_string(static_cast<int>(op.shift));
      case OpKind::kMux:
        return "w(v" + std::to_string(op.aux) + " != 0 ? " + a + " : " + b +
               ", " + ws + ")";
      default:
        return "0";
    }
  }

  void emit_op(const Op& op, bool activity) {
    const std::string dst = "v" + std::to_string(op.dst);
    const std::string toggle =
        "tg[" + std::to_string(op.dst - 1) + "] += pc(" + dst + ", ";
    if (op.kind == OpKind::kRequant) {
      const auto& rq =
          EmitAccess::requants(sim_)[static_cast<std::size_t>(op.aux)];
      const int shift = rq.src_frac - rq.fmt.frac;
      os_ << "    { i64 q = v" << op.a << ";\n";
      if (shift >= 63) {
        os_ << "      q = 0;\n";
      } else if (shift > 0) {
        if (rq.rounding == fx::Rounding::kRoundNearest) {
          os_ << "      q = (q + " << lit(std::int64_t{1} << (shift - 1))
              << ") >> " << shift << ";\n";
        } else {
          os_ << "      q >>= " << shift << ";\n";
        }
      } else if (shift < 0) {
        os_ << "      q = (i64)((u64)q << " << -shift << ");\n";
      }
      if (rq.overflow == fx::Overflow::kWrap) {
        os_ << "      q = w(q, " << (64 - rq.fmt.width) << ");\n";
      } else {
        os_ << "      q = q < " << lit(rq.fmt.raw_min()) << " ? "
            << lit(rq.fmt.raw_min()) << " : (q > " << lit(rq.fmt.raw_max())
            << " ? " << lit(rq.fmt.raw_max()) << " : q);\n";
      }
      if (activity) {
        os_ << "      " << toggle << "q, " << mask_lit(op.width) << ");\n";
      }
      os_ << "      " << dst << " = q; }\n";
      return;
    }
    if (op.kind == OpKind::kOutput) {
      if (activity) {
        os_ << "    " << toggle << "v" << op.a << ", " << mask_lit(op.width)
            << ");\n";
      }
      os_ << "    " << dst << " = v" << op.a << "; op" << op.aux << "[oc"
          << op.aux << "++] = " << dst << ";\n";
      return;
    }
    if (activity) {
      os_ << "    { const i64 n = " << expr(op) << "; " << toggle << "n, "
          << mask_lit(op.width) << "); " << dst << " = n; }\n";
    } else {
      os_ << "    " << dst << " = " << expr(op) << ";\n";
    }
  }

  const CompiledSimulator& sim_;
  std::ostringstream os_;
};

}  // namespace

EmitResult emit_source(const CompiledSimulator& sim, Entry entry) {
  return Emitter(sim).emit(entry);
}

}  // namespace dsadc::rtl::codegen
