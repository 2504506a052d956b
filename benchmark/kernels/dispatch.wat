;; Call-heavy kernel: a call_indirect dispatch loop. run(n) folds i = 0..n-1
;; through one of four table entries selected by i & 3, so every iteration
;; pays a table lookup, a signature check and an indirect call (the path
;; the engines' inline caches exist for). The four handlers share the
;; signature (acc, i) -> acc, which is type 0.
(module $dispatch
  (func $add (param i32 i32) (result i32)
    local.get 0
    local.get 1
    i32.add
  )
  (func $xor (param i32 i32) (result i32)
    local.get 0
    local.get 1
    i32.xor
  )
  (func $mul (param i32 i32) (result i32)
    local.get 0
    i32.const 31
    i32.mul
    local.get 1
    i32.add
  )
  (func $rot (param i32 i32) (result i32)
    local.get 0
    i32.const 5
    i32.rotl
    local.get 1
    i32.sub
  )
  ;; locals: 0 = n, 1 = i, 2 = acc
  (func $run (param i32) (result i32)
    (local i32 i32)
    block
      loop
        local.get 1
        local.get 0
        i32.ge_u
        br_if 1
        local.get 2
        local.get 1
        local.get 1
        i32.const 3
        i32.and
        call_indirect (type 0)
        local.set 2
        local.get 1
        i32.const 1
        i32.add
        local.set 1
        br 0
      end
    end
    local.get 2
  )
  (table 4 funcref)
  (elem (i32.const 0) $add $xor $mul $rot)
  (export "run" (func $run))
)
