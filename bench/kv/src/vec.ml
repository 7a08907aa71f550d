(** Growable int arrays: latency samples and span endpoints are stored
    unboxed, so a run of a million requests costs megabytes, not a
    million heap blocks. *)

type t = { mutable a : int array; mutable n : int }

let create ?(cap = 1024) () = { a = Array.make (max 1 cap) 0; n = 0 }
let length t = t.n
let clear t = t.n <- 0

let grow t need =
  if need > Array.length t.a then begin
    let a = Array.make (max need (2 * Array.length t.a)) 0 in
    Array.blit t.a 0 a 0 t.n;
    t.a <- a
  end

let push t x =
  grow t (t.n + 1);
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let get t i =
  if i < 0 || i >= t.n then invalid_arg "Vec.get";
  t.a.(i)

(** [get0 t i] is slot [i], or 0 past the end. *)
let get0 t i = if i >= 0 && i < t.n then t.a.(i) else 0

(** [set t i x] writes slot [i], extending the vector (zero-filled) when
    [i] is past the end. *)
let set t i x =
  grow t (i + 1);
  if i >= t.n then begin
    Array.fill t.a t.n (i + 1 - t.n) 0;
    t.n <- i + 1
  end;
  t.a.(i) <- x

let to_array t = Array.sub t.a 0 t.n
