(** The client-side model every reply is checked against.

    Two connections race on shared keys, so single replies are checked
    against bounds, not exact values: an INCR reply cannot exceed the
    INCRs issued to that counter, a score cannot drift from its preload
    value by more than the ZINCRBYs issued to that member.  Exact values
    are checked at the end ({!audit_*}): counters must equal their
    acknowledged INCRs and scores their preload value plus acknowledged
    deltas.  A key whose op failed is in doubt and left out of the audit;
    the failure itself is already counted. *)

module C = Nr_kvstore.Command
module W = Workload

type t = {
  spec : W.spec;
  counter_issued : int array;
  counter_acked : int array;
  member_issued : int array;
  member_delta : int array;
  init : int array;
  doubt_counter : bool array;
  doubt_member : bool array;
  mutable execs : int;
  mutable aborts : int;
  mutable errors : string list;  (** first few mismatches, for the report *)
}

let create spec ~seed =
  {
    spec;
    counter_issued = Array.make spec.W.counters 0;
    counter_acked = Array.make spec.W.counters 0;
    member_issued = Array.make spec.W.members 0;
    member_delta = Array.make spec.W.members 0;
    init = Array.init spec.W.members (W.init_score ~seed);
    doubt_counter = Array.make spec.W.counters false;
    doubt_member = Array.make spec.W.members false;
    execs = 0;
    aborts = 0;
    errors = [];
  }

let note t msg = if List.length t.errors < 8 then t.errors <- msg :: t.errors

(** Record that [op] was sent. *)
let issue t (op : W.op) =
  Array.iter
    (fun (_, e) ->
      match e with
      | W.E_incr c -> t.counter_issued.(c) <- t.counter_issued.(c) + 1
      | W.E_zincrby (m, _) -> t.member_issued.(m) <- t.member_issued.(m) + 1
      | W.E_exec x ->
          t.counter_issued.(x.a) <- t.counter_issued.(x.a) + 1;
          t.counter_issued.(x.b) <- t.counter_issued.(x.b) + 1;
          t.member_issued.(x.zm) <- t.member_issued.(x.zm) + 1
      | _ -> ())
    op.cmds

(** Mark every audited key [op] touches as in doubt. *)
let doubt t (op : W.op) =
  Array.iter
    (fun (_, e) ->
      match e with
      | W.E_incr c -> t.doubt_counter.(c) <- true
      | W.E_zincrby (m, _) -> t.doubt_member.(m) <- true
      | W.E_exec x ->
          t.doubt_counter.(x.a) <- true;
          t.doubt_counter.(x.b) <- true;
          t.doubt_member.(x.zm) <- true
      | _ -> ())
    op.cmds

let near t m v = abs (v - t.init.(m)) <= t.member_issued.(m)
let counter_ok t c v = v >= 1 && v <= t.counter_issued.(c)

(** Check one reply; on success apply its acknowledged effect to the
    model.  Returns false on a mismatch. *)
let reply t (e : W.expect) (r : C.reply) =
  let s = t.spec in
  let ok =
    match (e, r) with
    | W.E_ok, C.Ok_reply -> true
    | W.E_queued, C.Bulk "QUEUED" -> true
    | W.E_zrank, C.Int n -> n >= 0 && n < s.W.members
    | W.E_zscore m, C.Int v -> near t m v
    | W.E_zincrby (m, d), C.Int v ->
        near t m v
        && begin
             t.member_delta.(m) <- t.member_delta.(m) + d;
             true
           end
    | W.E_get k, C.Bulk v -> W.value_ok ~len:s.W.value_len k v
    | W.E_incr c, C.Int v ->
        counter_ok t c v
        && begin
             t.counter_acked.(c) <- t.counter_acked.(c) + 1;
             true
           end
    | W.E_mget ks, C.Array rs ->
        List.length rs = Array.length ks
        && List.for_all2
             (fun k r ->
               match r with
               | C.Bulk v -> W.value_ok ~len:s.W.value_len k v
               | _ -> false)
             (Array.to_list ks) rs
    | W.E_ttl, C.Int n -> n >= -2 && n <= 1
    | W.E_ttl_get _, C.Nil -> true
    | W.E_ttl_get k, C.Bulk v -> W.value_ok ~len:s.W.value_len k v
    | W.E_exec x, C.Nil ->
        t.execs <- t.execs + 1;
        x.W.watched
        && begin
             t.aborts <- t.aborts + 1;
             true
           end
    | W.E_exec x, C.Array [ C.Int va; C.Int vb; C.Int vz; C.Ok_reply; C.Int 1 ]
      ->
        t.execs <- t.execs + 1;
        counter_ok t x.W.a va && counter_ok t x.W.b vb && near t x.W.zm vz
        && begin
             t.counter_acked.(x.W.a) <- t.counter_acked.(x.W.a) + 1;
             t.counter_acked.(x.W.b) <- t.counter_acked.(x.W.b) + 1;
             t.member_delta.(x.W.zm) <- t.member_delta.(x.W.zm) + x.W.zd;
             true
           end
    | _ -> false
  in
  if not ok then
    note t
      (Format.asprintf "unexpected reply %a" C.pp_reply r);
  ok

(** Counters to audit: INCR'd, not in doubt.  With the expected value. *)
let audit_counters t =
  List.filter_map
    (fun c ->
      if t.counter_issued.(c) > 0 && not t.doubt_counter.(c) then
        Some (W.counter_key c, t.counter_acked.(c))
      else None)
    (List.init t.spec.W.counters Fun.id)

let audit_members t =
  List.filter_map
    (fun m ->
      if t.member_issued.(m) > 0 && not t.doubt_member.(m) then
        Some (m, t.init.(m) + t.member_delta.(m))
      else None)
    (List.init t.spec.W.members Fun.id)
