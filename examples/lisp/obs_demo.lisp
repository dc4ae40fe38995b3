;; Observability demo for the CLI:
;;
;;   curare --trace out.json --stats examples/lisp/obs_demo.lisp
;;
;; Top-level forms run while the program loads, so the %cri-run calls
;; below execute a hand-transformed CRI recursion (the transform
;; module's output shape) at S = 1, 2, 4 server threads. The --stats
;; table then shows measured wall time against the paper's §4.1
;; T(S) = (ceil(d/S)-1)(h+t) + (S*h+t) with the measured h and t, and
;; --trace captures per-server task spans, enqueue instants, and the
;; lock traffic from %locked-update-var.

(defun iota (n)
  (if (> n 0) (cons n (iota (- n 1))) nil))

(setq hits 0)

;; Hand-transformed server body: the recursive call became a
;; %cri-enqueue on call site 0; the shared counter update is the
;; reordering device of §3.2.3, in its lock-backed form.
(defun walk$cri (l)
  (when l
    (%locked-update-var 'hits (lambda (%old) (+ %old 1)))
    (%cri-enqueue 0 (cdr l))))

(setq xs (iota 400))
(%cri-run walk$cri 1 1 xs)
(%cri-run walk$cri 1 2 xs)
(%cri-run walk$cri 1 4 xs)
