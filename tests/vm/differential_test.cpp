// The differential oracle: every program in examples/lisp/ and
// tests/vm/corpus/ runs under both engines — a plain tree-walking
// Interp and a Vm over a fresh Interp — and everything observable
// must match: the final value, any error text, and the captured
// printer output.
//
// The runner mirrors Curare::load_program's treatment of top-level
// forms (curare-declare is advice, not code) and Interp::eval_program's
// rooting, but deliberately uses bare interpreters with no Runtime:
// programs that need runtime primitives (%cri-run, locks) fail with
// the *same* unbound error on both engines, which is itself parity
// coverage; and deadlock.lisp would otherwise live up to its name.
// The RNG is seeded identically so (random n) streams agree.
//
// A corpus file may hold several independent programs, each starting
// at a line that begins with ";;;; program": every program runs in its
// own fresh interpreters, so one file can pin several error texts.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "gc/gc.hpp"
#include "lisp/interp.hpp"
#include "sexpr/printer.hpp"
#include "sexpr/reader.hpp"
#include "vm/vm.hpp"

namespace curare::vm {
namespace {

namespace fs = std::filesystem;
using sexpr::write_str;

struct Outcome {
  std::string result;
  std::string output;
};

Outcome run_program(const std::string& src, bool use_vm) {
  sexpr::Ctx ctx;
  lisp::Interp in(ctx);
  in.set_echo(false);
  in.seed_rng(42);
  Vm vm(in);
  if (use_vm) vm.install_apply_hook();
  Outcome o;
  try {
    gc::RootScope roots(ctx.heap.gc());
    std::vector<Value> forms;
    {
      gc::MutatorScope ms(ctx.heap.gc());
      forms = sexpr::read_all(ctx, src);
      for (Value f : forms) roots.add(f);
    }
    Value last = Value::nil();
    for (Value form : forms) {
      ctx.heap.gc().maybe_collect();
      if (form.is(sexpr::Kind::Cons) &&
          sexpr::car(form).is(sexpr::Kind::Symbol) &&
          sexpr::as_symbol(sexpr::car(form))->name == "curare-declare")
        continue;
      last = use_vm ? vm.eval_top(form) : in.eval_top(form);
    }
    o.result = write_str(last);
  } catch (const std::exception& e) {
    o.result = std::string("error: ") + e.what();
  }
  o.output = in.take_output();
  return o;
}

/// The independent programs in one corpus file's text.
std::vector<std::string> programs(const std::string& src) {
  constexpr std::string_view kMarker = ";;;; program";
  std::vector<std::string> out(1);
  std::istringstream in(src);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(kMarker, 0) == 0) out.emplace_back();
    out.back() += line + "\n";
  }
  return out;
}

std::string slurp(const fs::path& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.is_open()) << path;
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::vector<fs::path> corpus() {
  const fs::path repo = CURARE_REPO_DIR;
  std::vector<fs::path> files;
  for (const char* dir : {"tests/vm/corpus", "examples/lisp"}) {
    for (const auto& entry : fs::directory_iterator(repo / dir)) {
      if (entry.path().extension() == ".lisp")
        files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(DifferentialTest, EnginesAgreeOnEveryCorpusProgram) {
  const std::vector<fs::path> files = corpus();
  ASSERT_GE(files.size(), 3u) << "corpus missing — wrong CURARE_REPO_DIR?";
  for (const fs::path& path : files) {
    const std::vector<std::string> progs = programs(slurp(path));
    for (std::size_t i = 0; i < progs.size(); ++i) {
      const Outcome tree = run_program(progs[i], /*use_vm=*/false);
      const Outcome vm = run_program(progs[i], /*use_vm=*/true);
      EXPECT_EQ(tree.result, vm.result) << path.filename() << " #" << i;
      EXPECT_EQ(tree.output, vm.output) << path.filename() << " #" << i;
    }
  }
}

/// What the programs of one corpus file did on the VM.
struct VmRun {
  std::uint64_t compiled = 0, fallback = 0;  ///< summed entry counters
  std::vector<std::string> refused;  ///< global closures the VM refused
};

/// Runs every program of corpus file `file` on a Vm. A file's first
/// program must run cleanly; the programs after a ";;;; program" line
/// are error cases and must end in a LispError (its text is compared
/// between the engines above).
VmRun run_on_vm(const char* file) {
  VmRun r;
  const std::vector<std::string> progs =
      programs(slurp(fs::path(CURARE_REPO_DIR) / "tests/vm/corpus" / file));
  for (std::size_t i = 0; i < progs.size(); ++i) {
    sexpr::Ctx ctx;
    lisp::Interp in(ctx);
    in.set_echo(false);
    in.seed_rng(42);
    Vm vm(in);
    vm.install_apply_hook();
    if (i == 0) {
      vm.eval_program(progs[i]);
    } else {
      EXPECT_THROW(vm.eval_program(progs[i]), sexpr::LispError)
          << file << " #" << i;
    }
    r.compiled += vm.compiled_entries();
    r.fallback += vm.fallback_entries();
    in.global_env()->for_each_binding([&](Value v) {
      if (!v.is(sexpr::Kind::Closure)) return;
      const auto* c = static_cast<const lisp::Closure*>(v.obj());
      if (vm.ensure_compiled(c) == nullptr) r.refused.push_back(c->name);
    });
  }
  return r;
}

// The corpus must actually exercise the VM: the core-forms program
// compiles its defuns (compiled entries) and the fallback program
// crosses the refusal seam (fallback entries).
TEST(DifferentialTest, CorpusCoversBothEnginePaths) {
  for (const auto& [file, want_compiled, want_fallback] :
       {std::tuple{"core_forms.lisp", true, false},
        std::tuple{"fallback_mix.lisp", true, true},
        std::tuple{"places.lisp", true, false}}) {
    const VmRun r = run_on_vm(file);
    if (want_compiled) {
      EXPECT_GT(r.compiled, 0u) << file;
    }
    if (want_fallback) {
      EXPECT_GT(r.fallback, 0u) << file;
    }
  }
}

// Every function the places corpus defines runs on bytecode: its setf,
// incf, decf, push and pop forms on struct, nth, aref and gethash
// places are all compiled, not handed to the tree-walker.
TEST(DifferentialTest, EveryPlaceFormCompiles) {
  const VmRun r = run_on_vm("places.lisp");
  EXPECT_TRUE(r.refused.empty())
      << "refused: " << ::testing::PrintToString(r.refused);
}

}  // namespace
}  // namespace curare::vm
