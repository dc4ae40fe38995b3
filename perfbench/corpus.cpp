#include "corpus.hpp"

namespace perfbench {
namespace {

const char* const kNames[kTemplates] = {
    "traversal", "write_ahead", "counter",         "remq",
    "assoc_sum", "struct_walk", "refuse_declared", "refuse_alias",
};

constexpr const char* kList = "(setq in (list 3 1 4 1 5 9 2 6 5 3 5 8))";

/// Defuns of a pure helper chain h0 … h(m-1).
std::string helpers(int m) {
  std::string s;
  for (int j = 0; j < m; ++j) {
    const std::string n = std::to_string(j);
    s += j + 1 < m ? "(defun h" + n + " (x) (+ (h" + std::to_string(j + 1) +
                         " x) " + n + "))\n"
                   : "(defun h" + n + " (x) (* x 2))\n";
  }
  return s;
}

/// `expr` passed through the chain (unchanged when there is none).
std::string through(int m, const std::string& expr) {
  return m > 0 ? "(h0 " + expr + ")" : expr;
}

/// (cdr (cdr … l)), d times.
std::string cdrs(int d, const std::string& l) {
  std::string s = l;
  for (int i = 0; i < d; ++i) s = "(cdr " + s + ")";
  return s;
}

Program make(int t, int m, int d) {
  Program p;
  p.tmpl = t;
  p.args = {"in"};
  p.state = "in";
  p.input = kList;
  std::string main;
  switch (t) {
    case 0:  // Fig 3: read-only traversal, conflict-free
      main = "(defun f (l) (when l " + through(m, "(car l)") +
             " (f (cdr l))))";
      p.state = "nil";
      break;
    case 1:  // Fig 4: write d cells ahead → locks, cap d
      main = "(defun f (l) (when " + cdrs(d, "l") + " (setf (car " +
             cdrs(d, "l") + ") (+ (car l) " + through(m, "1") +
             ")) (f (cdr l))))";
      p.expect.locks = 2;  // a read lock on l.car, a write lock ahead
      p.expect.cap = d;
      break;
    case 2:  // Fig 8: reorderable counter → atomic update
      main = "(setq cnt 0)\n(defun f (l) (when l (setq cnt (+ cnt " +
             through(m, "(car l)") + ")) (f (cdr l))))";
      p.expect.reordered = 1;
      p.state = "cnt";
      break;
    case 3:  // Fig 12: remq, result used → destination-passing style
      main =
          "(defun f (obj lst) (cond ((null lst) nil) ((eq obj (car lst)) "
          "(f obj (cdr lst))) (t (cons " +
          through(m, "(car lst)") + " (f obj (cdr lst))))))";
      p.expect.dps = true;
      p.input = "(setq in (list 1 'x 2 'x 3 4 'x 5 6 'x))";
      p.args = {"'x", "in"};
      p.state = "nil";
      break;
    case 4:  // §5 associative reduction → iteration
      main = "(defun f (l) (if (null l) 0 (+ " + through(m, "(car l)") +
             " (f (cdr l)))))";
      p.expect.rec2iter = true;
      p.state = "nil";
      break;
    case 5:  // defstruct tree walker, sapp declaration, 2 call sites
      main =
          "(defstruct tn (pointers left right) (data weight))\n"
          "(defun build (d) (if (= d 0) nil (make-tn 'weight d 'left "
          "(build (- d 1)) 'right (build (- d 1)))))\n"
          "(defun f (tr) (declare (curare (sapp tr))) (when tr (setf "
          "(weight tr) " +
          through(m, "(weight tr)") +
          ") (f (left tr)) (f (right tr))))";
      p.declares = true;
      p.input = "(setq in (build 4))";
      break;
    case 6:  // §6 refusal by declaration
      main = "(curare-declare (no-restructure f))\n(defun f (l) (when l "
             "(setf (car l) " +
             through(m, "(car l)") + ") (f (cdr l))))";
      p.expect.ok = false;
      p.declares = true;
      p.input.clear();
      break;
    default:  // worst-case aliasing between parameters
      main = "(defun f (a b) (when a (setf (car a) " +
             through(m, "(car b)") + ") (f (cdr a) (cdr b))))";
      p.expect.ok = false;
      p.input.clear();
      break;
  }
  p.text = helpers(m) + main + "\n";
  return p;
}

}  // namespace

const char* template_name(int t) { return kNames[t]; }

std::vector<Program> make_corpus(Rng& rng, int n) {
  std::vector<Program> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < kTemplates; ++t) {
    // Every template gets the same spread of helper-chain lengths, so
    // the costliest programs look alike on every seed.
    const int count = n / kTemplates + (t < n % kTemplates ? 1 : 0);
    for (const std::int64_t chain : stratified(rng, count, 0, 11)) {
      // The struct walker carries a tree-building defun: keep it at 12.
      const int m = static_cast<int>(chain) - (t == 5 && chain > 0);
      out.push_back(make(t, m, static_cast<int>(rng.range(1, 3))));
    }
  }
  rng.shuffle(out);
  return out;
}

}  // namespace perfbench
