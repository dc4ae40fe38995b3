;; Differential corpus: every setf place Interp::setf_place accepts —
;; struct fields, nth, aref, gethash — under setf, incf, decf, push and
;; pop, compiled into defun bodies. (note TAG V) logs TAG and returns V,
;; so the log shows the order in which the place's subforms and the new
;; value were evaluated, and that incf/decf/push/pop evaluate the place
;; twice. Each ";;;; program" line starts an independent program (a
;; fresh interpreter per engine), so every error case below gets its own
;; run; the text of each error is compared between the engines.

(setq log nil)
(defun note (tag v) (setq log (cons tag log)) v)
(defun take-log () (let ((l (reverse log))) (setq log nil) l))

(defstruct tnode (pointers left right) (data weight))

;; The cri_runs walker's body: a struct field read, bumped, stored.
(defun walk (tr)
  (when tr
    (walk (left tr))
    (walk (right tr))
    (setf (weight tr) (+ (weight tr) 1))
    nil))
(defun tree (d w)
  (if (= d 0) nil
      (make-tnode 'weight w 'left (tree (- d 1) (* 2 w))
                  'right (tree (- d 1) (+ (* 2 w) 1)))))
(defun weights (tr)
  (if (null tr) nil
      (cons (weight tr) (append (weights (left tr)) (weights (right tr))))))
(setq tr (tree 3 1))
(walk tr)
(walk tr)
(print (weights tr))

;; setf: the value first, then the place's subforms in the order
;; setf_place evaluates them.
(defun set-field (p v) (setf (weight (note 'obj p)) (note 'val v)))
(defun set-nth (i l v) (setf (nth (note 'idx i) (note 'list l)) (note 'val v)))
(defun set-hash (k h v) (setf (gethash (note 'key k) (note 'tbl h)) (note 'val v)))
(defun set-aref (a i v) (setf (aref (note 'vec a) (note 'idx i)) (note 'val v)))

(setq p (make-tnode 'weight 1))
(setq l (list 'a 'b 'c))
(setq h (make-hash-table))
(setq a (make-array 3 0))
(print (list (set-field p 7) (weight p) (take-log)))
(print (list (set-nth 1 l 'x) l (take-log)))
(print (list (set-nth 1.9 l 'y) l (take-log)))
(print (list (set-hash 'k h 5) (gethash 'k h) (take-log)))
(print (list (set-aref a 2 'z) (aref a 2) (take-log)))

;; Several pairs in one setf: each pair stores before the next value.
(defun set-both (p l)
  (setf (weight p) (note 'first 10)
        (nth 0 l) (note 'second (weight p))))
(print (list (set-both p l) l (take-log)))

;; incf/decf read the place, then store through it: the place's
;; subforms evaluate twice.
(defun bump-field (p) (incf (weight (note 'obj p))))
(defun bump-nth (l) (incf (nth (note 'idx 0) (note 'list l)) 5))
(defun drop-hash (h) (decf (gethash (note 'key 'n) (note 'tbl h)) 2))
(defun drop-aref (a) (decf (aref (note 'vec a) (note 'idx 0))))
(setf (nth 0 l) 1)
(setf (gethash 'n h) 10)
(print (list (bump-field p) (weight p) (take-log)))
(print (list (bump-nth l) l (take-log)))
(print (list (drop-hash h) (gethash 'n h) (take-log)))
(print (list (drop-aref a) (aref a 0) (take-log)))

;; push: the item first, then the place read, then the place's
;; subforms again for the store. pop: read, store the cdr, return the
;; car.
(defun push-field (x p) (push (note 'item x) (weight (note 'obj p))))
(defun push-nth (x l) (push (note 'item x) (nth (note 'idx 1) (note 'list l))))
(defun push-hash (x h) (push (note 'item x) (gethash (note 'key 'q) (note 'tbl h))))
(defun push-aref (x a) (push (note 'item x) (aref (note 'vec a) (note 'idx 1))))
(defun pop-field (p) (pop (weight (note 'obj p))))
(defun pop-nth (l) (pop (nth (note 'idx 1) (note 'list l))))
(defun pop-hash (h) (pop (gethash (note 'key 'q) (note 'tbl h))))
(defun pop-aref (a) (pop (aref (note 'vec a) (note 'idx 1))))
(setf (weight p) nil)
(setf (nth 1 l) nil)
(setf (aref a 1) nil)
(print (list (push-field 1 p) (push-field 2 p) (take-log)))
(print (list (push-nth 1 l) (push-nth 2 l) l (take-log)))
(print (list (push-hash 1 h) (push-hash 2 h) (take-log)))
(print (list (push-aref 1 a) (push-aref 2 a) (take-log)))
(print (list (pop-field p) (weight p) (take-log)))
(print (list (pop-nth l) l (take-log)))
(print (list (pop-hash h) (gethash 'q h) (take-log)))
(print (list (pop-aref a) (aref a 1) (take-log)))

;; A negative nth index stores through the list itself, as in the
;; tree-walker.
(defun set-nth-neg (l) (setf (nth -2 l) 'neg) l)
(print (set-nth-neg (list 1 2 3)))

;; Places that are also lexical variable names: setf dispatches on the
;; accessor, never on a binding of that name.
(defun shadowed (weight p) (setf (weight p) weight) p)
(print (weight (shadowed 42 p)))
(take-log)

;;;; program
;; A struct place given a value that is not a tnode.
(defstruct tnode (pointers left right) (data weight))
(defun set-w (x) (setf (weight x) 1))
(set-w 3)

;;;; program
;; A struct place given an instance of another struct type.
(defstruct tnode (pointers left right) (data weight))
(defstruct other (data size))
(defun set-w (x) (setf (weight x) 1))
(set-w (make-other 'size 2))

;;;; program
;; incf reads the field first: nil reads nil, and (+ nil 1) fails
;; before the store is reached.
(defstruct tnode (pointers left right) (data weight))
(defun bump (x) (incf (weight x)))
(bump nil)

;;;; program
;; The value is evaluated before the struct check fails.
(defstruct tnode (pointers left right) (data weight))
(defun set-w (x) (setf (weight x) (print 'value-first)))
(set-w nil)

;;;; program
;; aref past the end.
(defun set-a (a i) (setf (aref a i) 1))
(set-a (make-array 2) 2)

;;;; program
;; aref below zero.
(defun set-a (a i) (setf (aref a i) 1))
(set-a (make-array 2) -1)

;;;; program
;; aref on something that is not a vector: the index converts first.
(defun set-a (a i) (setf (aref a i) 1))
(set-a (list 1 2) 0)

;;;; program
;; aref with an index that is not a number.
(defun set-a (a i) (setf (aref a i) 1))
(set-a (list 1 2) 'i)

;;;; program
;; gethash on something that is not a table.
(defun set-h (h) (setf (gethash 'k h) 1))
(set-h (list 1 2))

;;;; program
;; nth past the end of the list.
(defun set-n (l) (setf (nth 5 l) 1))
(set-n (list 1 2))

;;;; program
;; nth with an index that is not a number: fails before the list form
;; runs.
(defun set-n (i) (setf (nth i (print 'list-form)) 1))
(set-n 'one)

;;;; program
;; pop of a place that does not hold a list.
(defstruct tnode (pointers left right) (data weight))
(defun pop-w (x) (pop (weight x)))
(pop-w (make-tnode 'weight 5))
