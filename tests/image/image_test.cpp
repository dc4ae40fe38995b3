// Warm-start subsystem tests (DESIGN.md §15).
//
// Round-trip properties: a template session's globals — closures with
// captured frames, struct instances, shared substructure, cycles built
// with setf — survive capture → clone bit-for-bit in behaviour, and
// the clone is a *copy*: mutating one session never leaks into
// another. Damage properties: corrupt, truncated, version-skewed, and
// wrong-magic blobs are rejected with distinct errors, never half-
// loaded. Cache properties: the restructure cache is a bounded LRU
// whose hits answer byte-identically to the miss that seeded them.
#include "image/image.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "curare/curare.hpp"
#include "gc/gc.hpp"
#include "image/restructure_cache.hpp"
#include "lisp/function.hpp"
#include "lisp/interp.hpp"
#include "runtime/runtime.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sexpr/ctx.hpp"
#include "sexpr/printer.hpp"

namespace image = curare::image;
namespace sexpr = curare::sexpr;
namespace serve = curare::serve;
using curare::Curare;
using sexpr::Kind;
using sexpr::Value;

namespace {

/// Host interpreter + shared runtime + any number of serving-mode
/// sessions over one heap — the daemon's shape without the sockets.
struct ImageFixture {
  sexpr::Ctx ctx;
  curare::lisp::Interp host{ctx};
  curare::runtime::Runtime rt{host, 2};

  std::unique_ptr<Curare> session() {
    return std::make_unique<Curare>(ctx, rt);
  }

  /// Evaluate in `s` and print the last value.
  std::string run(Curare& s, const std::string& src) {
    curare::gc::GcHeap& gc = ctx.heap.gc();
    curare::gc::RootScope roots(gc);
    std::string printed;
    {
      curare::gc::MutatorScope ms(gc);
      Value last = s.load_program(src);
      roots.add(last);
      printed = sexpr::write_str(last);
    }
    s.interp().take_output();
    return printed;
  }
};

const char* kPrelude =
    "(defstruct point (pointers) (data px py))"
    "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"
    "(defun make-adder (n) (lambda (x) (+ x n)))"
    "(setq add3 (make-adder 3))"
    "(setq origin (make-point 'px 3 'py 4))"
    "(setq greeting \"hello\")"
    "(setq pi-ish 3.5)"
    "(setq arr (make-array 3 7))"
    "(setq tbl (make-hash-table))"
    "(setf (gethash 'k tbl) 42)"
    "(setq pair (list 1 2 3))";

}  // namespace

TEST(Image, RoundTripGlobalsClosuresStructs) {
  ImageFixture f;
  auto templ = f.session();
  f.run(*templ, kPrelude);
  image::SessionImage img = image::SessionImage::capture(*templ);
  templ.reset();  // the clone must not depend on the template's heap refs

  auto target = f.session();
  image::CloneStats stats = img.clone_into(*target);
  EXPECT_GT(stats.nodes, 0u);
  EXPECT_GT(stats.bindings, 0u);

  EXPECT_EQ(f.run(*target, "(fib 10)"), "55");
  EXPECT_EQ(f.run(*target, "(funcall add3 4)"), "7");
  EXPECT_EQ(f.run(*target, "(px origin)"), "3");
  EXPECT_EQ(f.run(*target, "(point-p origin)"), "t");
  EXPECT_EQ(f.run(*target, "greeting"), "\"hello\"");
  EXPECT_EQ(f.run(*target, "pi-ish"), "3.5");
  EXPECT_EQ(f.run(*target, "(aref arr 1)"), "7");
  EXPECT_EQ(f.run(*target, "(gethash 'k tbl)"), "42");
  EXPECT_EQ(f.run(*target, "pair"), "(1 2 3)");
  // Builtins were serialized by name and resolved against the target.
  EXPECT_EQ(f.run(*target, "(car (cdr pair))"), "2");
  // defstruct re-registration: new instances work in the clone.
  EXPECT_EQ(f.run(*target, "(py (make-point 'py 9))"), "9");
}

TEST(Image, CloneIsACopyNotAnAlias) {
  ImageFixture f;
  auto templ = f.session();
  f.run(*templ, "(setq cell (cons 1 2))");
  image::SessionImage img = image::SessionImage::capture(*templ);

  auto a = f.session();
  auto b = f.session();
  img.clone_into(*a);
  img.clone_into(*b);
  f.run(*a, "(setf (car cell) 99)");
  EXPECT_EQ(f.run(*a, "(car cell)"), "99");
  EXPECT_EQ(f.run(*b, "(car cell)"), "1");   // b's world untouched
  EXPECT_EQ(f.run(*templ, "(car cell)"), "1");
}

TEST(Image, SharedSubstructureStaysShared) {
  ImageFixture f;
  auto templ = f.session();
  f.run(*templ, "(setq a (list 1 2)) (setq b (cons 0 a))");
  image::SessionImage img = image::SessionImage::capture(*templ);

  auto target = f.session();
  img.clone_into(*target);
  EXPECT_EQ(f.run(*target, "(eq a (cdr b))"), "t");
  f.run(*target, "(setf (car a) 99)");
  EXPECT_EQ(f.run(*target, "(car (cdr b))"), "99");
}

TEST(Image, CyclesBuiltWithSetfSurvive) {
  ImageFixture f;
  auto templ = f.session();
  // A self-referential cons and a two-cons ring — the capture walk and
  // the fixup pass must both terminate and preserve identity.
  f.run(*templ,
        "(setq self (cons 1 2)) (setf (cdr self) self)"
        "(setq ring1 (cons 'a nil)) (setq ring2 (cons 'b ring1))"
        "(setf (cdr ring1) ring2)");
  image::SessionImage img = image::SessionImage::capture(*templ);

  auto target = f.session();
  img.clone_into(*target);
  EXPECT_EQ(f.run(*target, "(eq self (cdr self))"), "t");
  EXPECT_EQ(f.run(*target, "(car (cdr (cdr self)))"), "1");
  EXPECT_EQ(f.run(*target, "(eq ring1 (cdr (cdr ring1)))"), "t");
  EXPECT_EQ(f.run(*target, "(car (cdr ring1))"), "b");
}

TEST(Image, ClonedClosuresForgetCompiledCode) {
  ImageFixture f;
  auto templ = f.session();
  // Calling sq under the VM compiles its closure (code_state leaves
  // kCodeUnknown); the image must not carry that cache across.
  f.run(*templ, "(defun sq (x) (* x x)) (sq 5)");
  {
    Value v = templ->interp().global("sq");
    ASSERT_TRUE(v.is(Kind::Closure));
    const auto* c = static_cast<const curare::lisp::Closure*>(v.obj());
    EXPECT_NE(c->code_state.load(), curare::lisp::Closure::kCodeUnknown);
  }
  image::SessionImage img = image::SessionImage::capture(*templ);

  auto target = f.session();
  img.clone_into(*target);
  Value v = target->interp().global("sq");
  ASSERT_TRUE(v.is(Kind::Closure));
  const auto* c = static_cast<const curare::lisp::Closure*>(v.obj());
  EXPECT_EQ(c->code_state.load(), curare::lisp::Closure::kCodeUnknown);
  EXPECT_EQ(f.run(*target, "(sq 6)"), "36");
}

TEST(Image, NativeObjectsRefuseCapture) {
  ImageFixture f;
  auto templ = f.session();
  // A future handle is a Kind::Native (pool state + thread plumbing);
  // it cannot relocate into another process, so capture fails loudly.
  f.run(*templ, "(setq fut (future 42))");
  EXPECT_THROW(image::SessionImage::capture(*templ), image::ImageError);
}

TEST(Image, BytesRoundTripAndFileRoundTrip) {
  ImageFixture f;
  auto templ = f.session();
  f.run(*templ, kPrelude);
  image::SessionImage img = image::SessionImage::capture(*templ);

  image::SessionImage re =
      image::SessionImage::from_bytes(img.bytes());
  EXPECT_EQ(re.node_count(), img.node_count());

  const std::string path =
      testing::TempDir() + "curare_image_test_blob.img";
  img.save_file(path);
  image::SessionImage loaded = image::SessionImage::load_file(path);
  auto target = f.session();
  loaded.clone_into(*target);
  EXPECT_EQ(f.run(*target, "(fib 10)"), "55");
  std::remove(path.c_str());
}

TEST(Image, CaptureIsDeterministic) {
  // Two captures of the same session state are byte-identical (global
  // bindings are sorted by name), so image files diff cleanly.
  ImageFixture f;
  auto templ = f.session();
  f.run(*templ, kPrelude);
  image::SessionImage a = image::SessionImage::capture(*templ);
  image::SessionImage b = image::SessionImage::capture(*templ);
  EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(Image, RejectsCorruptTruncatedSkewedBlobs) {
  ImageFixture f;
  auto templ = f.session();
  f.run(*templ, "(setq x 1)");
  image::SessionImage img = image::SessionImage::capture(*templ);
  const std::vector<std::uint8_t>& good = img.bytes();
  ASSERT_GT(good.size(), 40u);

  auto expect_reject = [](std::vector<std::uint8_t> bytes,
                          const std::string& needle) {
    try {
      image::SessionImage::from_bytes(std::move(bytes));
      FAIL() << "blob should have been rejected (" << needle << ")";
    } catch (const image::ImageError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  {  // payload corruption → checksum mismatch
    std::vector<std::uint8_t> bad = good;
    bad[bad.size() - 3] ^= 0xFF;
    expect_reject(std::move(bad), "checksum");
  }
  {  // truncated mid-payload
    std::vector<std::uint8_t> bad = good;
    bad.resize(bad.size() - 7);
    expect_reject(std::move(bad), "truncated");
  }
  {  // too short to even hold a header
    expect_reject(std::vector<std::uint8_t>(good.begin(),
                                            good.begin() + 10),
                  "truncated");
  }
  {  // format version skew (bytes 8..11, little-endian)
    std::vector<std::uint8_t> bad = good;
    bad[8] = static_cast<std::uint8_t>(bad[8] + 1);
    expect_reject(std::move(bad), "version");
  }
  {  // wrong magic
    std::vector<std::uint8_t> bad = good;
    bad[0] ^= 0xFF;
    expect_reject(std::move(bad), "magic");
  }
}

// ---- restructure cache ----------------------------------------------------

TEST(RestructureCache, BoundedLruWithMetrics) {
  sexpr::Ctx ctx;
  curare::gc::GcHeap& gc = ctx.heap.gc();
  image::RestructureCache cache(gc, 8);  // 8 shards → 1 entry each

  image::RestructureEntry e;
  e.text = "chunk";
  e.ok = true;
  e.is_recursive = true;
  for (int i = 0; i < 64; ++i)
    cache.insert("key-" + std::to_string(i), e);
  // Every shard holds at most its share; the rest were evicted.
  EXPECT_LE(cache.size(), 8u);
  EXPECT_GE(cache.evictions(), 56u);

  // Re-insert one key and look it up: a hit copies the entry out.
  cache.insert("stable", e);
  image::RestructureEntry out;
  {
    curare::gc::MutatorScope ms(gc);
    EXPECT_TRUE(cache.lookup("stable", &out));
    EXPECT_FALSE(cache.lookup("never-inserted", &out));
  }
  EXPECT_EQ(out.text, "chunk");
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_ratio(), 0.5);
}

TEST(RestructureCache, KeyNormalizesLoadOrderAndTracksDecls) {
  ImageFixture f;
  const std::string defun_a =
      "(defun len (l) (if (null l) 0 (+ 1 (len (cdr l)))))";
  const std::string defun_b =
      "(defun last1 (l) (if (null (cdr l)) (car l) (last1 (cdr l))))";

  auto s1 = f.session();
  auto s2 = f.session();
  f.run(*s1, defun_a + defun_b);
  f.run(*s2, defun_b + defun_a);  // same program, opposite load order
  std::string k1, k2;
  {
    curare::gc::MutatorScope ms(f.ctx.heap.gc());
    k1 = image::RestructureCache::make_key(*s1, "len", true);
    k2 = image::RestructureCache::make_key(*s2, "len", true);
  }
  EXPECT_EQ(k1, k2);

  // A declaration feeds the analyzer, so it must change the key; the
  // request mode (named vs. sweep) answers differently, so it too.
  auto s3 = f.session();
  f.run(*s3, defun_a + defun_b +
                 "(curare-declare (no-restructure len))");
  std::string k3, k1_sweep;
  {
    curare::gc::MutatorScope ms(f.ctx.heap.gc());
    k3 = image::RestructureCache::make_key(*s3, "len", true);
    k1_sweep = image::RestructureCache::make_key(*s1, "len", false);
  }
  EXPECT_NE(k1, k3);
  EXPECT_NE(k1, k1_sweep);
}

// ---- end-to-end through the daemon ---------------------------------------

namespace {

struct DaemonFixture {
  sexpr::Ctx ctx;
  serve::ServeDaemon daemon;

  explicit DaemonFixture(serve::ServeOptions opts = {})
      : daemon(ctx, std::move(opts)) {
    std::string err;
    EXPECT_TRUE(daemon.start(&err)) << err;
  }
  ~DaemonFixture() { daemon.shutdown(); }

  serve::ClientConnection connect() {
    serve::ClientConnection c;
    std::string err;
    EXPECT_TRUE(c.connect("127.0.0.1", daemon.port(), &err)) << err;
    return c;
  }
};

}  // namespace

TEST(RestructureCache, HitAnswersByteIdenticallyToMiss) {
  DaemonFixture f;  // default options: cache enabled
  const std::string program =
      "(defun len (l) (if (null l) 0 (+ 1 (len (cdr l)))))";
  serve::Request req;
  req.op = "restructure";
  req.program = program;
  req.name = "len";

  auto a = f.connect();
  auto miss = a.request(req);
  ASSERT_TRUE(miss.has_value());
  ASSERT_EQ(miss->status, "ok") << miss->error;
  EXPECT_EQ(f.daemon.restructure_cache()->hits(), 0u);

  auto b = f.connect();
  auto hit = b.request(req);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->status, "ok") << hit->error;
  EXPECT_EQ(f.daemon.restructure_cache()->hits(), 1u);

  EXPECT_EQ(miss->result, hit->result);  // the differential check

  // The hit installed the transformed defun into session b: it must
  // answer calls exactly like the session that paid for the miss.
  serve::Request ev;
  ev.op = "eval";
  ev.program = "(len (list 1 2 3))";
  auto ra = a.request(ev);
  auto rb = b.request(ev);
  ASSERT_TRUE(ra.has_value() && rb.has_value());
  EXPECT_EQ(ra->result, "3");
  EXPECT_EQ(rb->result, "3");
}

TEST(RestructureCache, SweepSkipsCachedNonRecursiveVerdicts) {
  DaemonFixture f;
  const std::string program =
      "(defun twice (x) (* 2 x))"  // not recursive: sweep skips it
      "(defun len (l) (if (null l) 0 (+ 1 (len (cdr l)))))";
  serve::Request req;
  req.op = "restructure";  // no name → sweep
  req.program = program;

  auto a = f.connect();
  auto miss = a.request(req);
  ASSERT_TRUE(miss.has_value());
  ASSERT_EQ(miss->status, "ok") << miss->error;

  auto b = f.connect();
  auto hit = b.request(req);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->status, "ok") << hit->error;
  EXPECT_EQ(miss->result, hit->result);
  // Both names hit the second time: the recursive chunk and the
  // cached negative verdict for the non-recursive one.
  EXPECT_EQ(f.daemon.restructure_cache()->hits(), 2u);
}

TEST(Serve, ImageWarmStartMatchesPreludeColdStart) {
  const std::string prelude =
      "(defstruct point (pointers) (data px py))"
      "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"
      "(setq origin (make-point 'px 3 'py 4))";

  const std::string probe = "(list (fib 10) (px origin))";

  // Cold start: a fresh driver that evaluated the prelude itself.
  ImageFixture cold;
  auto fresh = cold.session();
  cold.run(*fresh, prelude);
  const std::string expected = cold.run(*fresh, probe);
  EXPECT_EQ(expected, "(55 3)");

  serve::ServeOptions warm;
  warm.prelude_src = prelude;
  DaemonFixture w(warm);
  ASSERT_NE(w.daemon.session_image(), nullptr);
  auto conn = w.connect();
  serve::Request ev;
  ev.op = "eval";
  ev.program = probe;
  auto r = conn.request(ev);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->status, "ok") << r->error;
  EXPECT_EQ(r->result, expected);
}

TEST(Serve, BadImageFileFailsStartup) {
  const std::string path =
      testing::TempDir() + "curare_image_test_bad.img";
  {
    std::FILE* fp = std::fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    std::fputs("definitely not an image", fp);
    std::fclose(fp);
  }
  serve::ServeOptions opts;
  opts.image_load = path;
  sexpr::Ctx ctx;
  serve::ServeDaemon daemon(ctx, opts);
  std::string err;
  EXPECT_FALSE(daemon.start(&err));
  EXPECT_NE(err.find("image"), std::string::npos) << err;
  daemon.shutdown();
  std::remove(path.c_str());
}
