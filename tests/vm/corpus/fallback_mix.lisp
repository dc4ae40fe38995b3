;; Differential corpus: forms the compiler refuses (lambda, defstruct)
;; interleaved with compiled calls, so the fallback seams — bytecode
;; calling tree-walked closures and back — are crossed repeatedly in one
;; program.

;; A compiled caller applying tree-walked lambdas.
(defun twice (f x) (funcall f (funcall f x)))
(print (twice (lambda (x) (* x 3)) 7))

;; A closure factory: the body holds a lambda, so make-adder itself
;; tree-walks; the closures it returns tree-walk too — all invisible
;; to callers.
(defun make-adder (k) (lambda (x) (+ x k)))
(print (funcall (make-adder 5) 10))
(print (mapcar (make-adder 100) '(1 2 3)))

;; Structs: definition (a top-level form the compiler refuses),
;; construction, accessors, and setf on a struct field (compiled).
(defstruct pt (data x) (data y))
(let ((p (make-pt 'x 1 'y 2)))
  (print (x p))
  (setf (y p) 9)
  (print (y p))
  (print (pt-p p)))

;; Higher-order builtins driving compiled closures: apply/reduce/sort
;; re-enter the engine through Interp::apply, which routes compiled
;; closures back onto bytecode.
(defun add2 (a b) (+ a b))
(print (apply add2 '(3 4)))
(print (reduce add2 '(1 2 3 4 5)))
(defun lt (a b) (< a b))
(print (sort '(3 1 4 1 5 9 2 6) lt))

;; setf on an nth place beside a cxr place (both compiled).
(let ((l (list 1 2 3)))
  (setf (nth 1 l) 'two)
  (setf (car l) 'one)
  (print l))

(print 'done)
