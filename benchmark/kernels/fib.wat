;; Call-heavy kernel: doubly recursive Fibonacci. Nearly every instruction
;; is call overhead (frame setup, argument passing, return), the opposite
;; of a PolyBench loop nest.
(module $fib
  (func $fib (param i32) (result i32)
    local.get 0
    i32.const 2
    i32.lt_s
    if (result i32)
      local.get 0
    else
      local.get 0
      i32.const 1
      i32.sub
      call $fib
      local.get 0
      i32.const 2
      i32.sub
      call $fib
      i32.add
    end
  )
  (export "run" (func $fib))
)
