type t = string

let fnv_prime = 0x100000001b3L

let hash64 ~seed a =
  let h = ref seed in
  let mix x = h := Int64.mul (Int64.logxor !h (Int64.of_int x)) fnv_prime in
  mix (Array.length a);
  Array.iter mix a;
  !h

(* Two independent streams: the offset-basis of FNV-1a and an arbitrary
   odd second seed. *)
let seed1 = 0xcbf29ce484222325L
let seed2 = 0x9e3779b97f4a7c15L

let table a =
  Printf.sprintf "%d.%Lx.%Lx" (Array.length a) (hash64 ~seed:seed1 a)
    (hash64 ~seed:seed2 a)

let option_table = function
  | Some a -> table a
  | None -> "domain"

(* Hash a column without copying its view; content-identical to [table]
   of the same values, so row-major and columnar producers agree. *)
let column_hash64 ~seed c =
  let h = ref seed in
  let mix x = h := Int64.mul (Int64.logxor !h (Int64.of_int x)) fnv_prime in
  mix (Rox_util.Column.length c);
  Rox_util.Column.iter mix c;
  !h

let column c =
  Printf.sprintf "%d.%Lx.%Lx" (Rox_util.Column.length c)
    (column_hash64 ~seed:seed1 c) (column_hash64 ~seed:seed2 c)

let option_column = function
  | Some c -> column c
  | None -> "domain"

let make ~epoch parts = Printf.sprintf "e%d|%s" epoch (String.concat "|" parts)
