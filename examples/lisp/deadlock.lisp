;; Deliberate deadlock — the CI hang canary.
;;
;;   curare --stall-ms 500 examples/lisp/deadlock.lisp
;;
;; The top level takes an exclusive variable lock and never releases
;; it; the CRI server body then tries to take the same lock from a
;; server thread and blocks forever. Without the resilience layer this
;; hangs the process. With --stall-ms the caller waiting for the run
;; notices that no task completes and fires the run's cancel token; the
;; blocked lock wait aborts with a StallError whose dump names the held
;; lock — non-zero exit (code 3) instead of a hung CI job.

(defun stuck$cri (i)
  (%lock-var 'shared-loc)
  (%unlock-var 'shared-loc))

(%lock-var 'shared-loc)
(%cri-run stuck$cri 1 2 0)
