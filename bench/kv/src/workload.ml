(** The four traffic mixes and their seeded request generator.

    Every op a mix can issue touches only keys its preload creates, and no
    op deletes a key (TTL keys aside, whose expiry is the point of
    [txn-ttl]), so structure sizes stay constant across phases and runs.
    Every reply is predictable enough to check: values carry their key's
    tag, counters are written only by INCR, and zset scores move only by
    acknowledged ZINCRBY deltas. *)

module Zipf = Nr_workload.Zipf
module Prng = Nr_workload.Prng

type kind =
  | Zrank
  | Zscore
  | Zincrby
  | Get
  | Set
  | Incr
  | Mget
  | Mset
  | Txn
  | Ttl_read  (** TTL of a TTL key *)
  | Ttl_get  (** GET of a TTL key *)

type spec = {
  name : string;
  flags : string list;  (** server flags besides --port and --aof *)
  aof : bool;
  depth : int;  (** closed-loop ops per burst and connection *)
  values : int;  (** value keys [v<i>] *)
  value_theta : float;
  value_len : int;
  counters : int;  (** INCR-only counter keys [c<i>] *)
  counter_theta : float;
  zkey : string;
  members : int;  (** zset members of [zkey] *)
  member_theta : float;
  ttl_keys : int;  (** keys [t<i>] that transactions SET and EXPIRE *)
  watch_pct : int;  (** share of transactions that WATCH first *)
  mget : int;
  mset : int;
  mix : (kind * int) list;  (** shares in percent, summing to 100 *)
  rate_lo : float;  (** open-loop arrival rates, ops/s *)
  rate_hi : float;
}

let base =
  {
    name = "";
    flags = [ "--workers"; "2" ];
    aof = false;
    depth = 1;
    values = 0;
    value_theta = 0.99;
    value_len = 32;
    counters = 0;
    counter_theta = 0.99;
    zkey = "z";
    members = 0;
    member_theta = 0.99;
    ttl_keys = 0;
    watch_pct = 0;
    mget = 8;
    mset = 4;
    mix = [];
    rate_lo = 1000.;
    rate_hi = 2000.;
  }

let evloop = [ "--net"; "evloop"; "--workers"; "2" ]

(* Open-loop rates are fixed constants, set against the median
   closed-loop throughput at seed on a 2-vCPU VM: 23% and 62% for
   leaderboard, 7-23% for the evloop workloads, whose evloop stalls
   overload the server at higher rates (README.md, "Phases"). *)
let all =
  [
    (* the paper's sorted-set workload: round-trip and read-path bound on
       the default front end, with almost no log, AOF, shard or session
       work *)
    {
      base with
      name = "leaderboard";
      zkey = "board";
      members = 100_000;
      mix = [ (Zrank, 45); (Zscore, 45); (Zincrby, 10) ];
      rate_lo = 15_000.;
      rate_hi = 41_000.;
    };
    (* write-heavy and durable: NR combiner and log, AOF tap and fsync,
       background compaction and the evloop batch path *)
    {
      base with
      name = "ingest-aof";
      flags =
        evloop @ [ "--fsync"; "every-n:32"; "--snapshot-every"; "200000" ];
      aof = true;
      depth = 16;
      values = 100_000;
      value_len = 64;
      counters = 10_000;
      members = 10_000;
      mix = [ (Set, 50); (Incr, 30); (Zincrby, 10); (Get, 10) ];
      rate_lo = 4_000.;
      rate_hi = 8_000.;
    };
    (* the only router, per-shard logs and cross-shard locks, with the
       widest key set and multi-key arrays *)
    {
      base with
      name = "sharded-mix";
      flags = evloop @ [ "--shards"; "4" ];
      depth = 8;
      values = 250_000;
      value_theta = 0.6;
      mix = [ (Get, 60); (Set, 25); (Mget, 10); (Mset, 5) ];
      rate_lo = 8_000.;
      rate_hi = 14_000.;
    };
    (* the only session state, compound transaction entries, WATCH
       conflicts and wheel-driven expiry *)
    {
      base with
      name = "txn-ttl";
      flags = evloop;
      counters = 1_000;
      members = 1_000;
      ttl_keys = 10_000;
      watch_pct = 20;
      mix = [ (Txn, 98); (Ttl_read, 1); (Ttl_get, 1) ];
      rate_lo = 1_500.;
      rate_hi = 4_000.;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all

(** The same mix over 1% of the key space, for the smoke test. *)
let shrink s =
  let small n = if n = 0 then 0 else max 50 (n / 100) in
  {
    s with
    values = small s.values;
    counters = small s.counters;
    members = small s.members;
    ttl_keys = small s.ttl_keys;
  }

(* ---- keys and values ---- *)

let value_key i = "v" ^ string_of_int i
let counter_key i = "c" ^ string_of_int i
let ttl_key i = "t" ^ string_of_int i

(** A value for [key]: the key's tag, a separator, 16 hex digits of
    [stamp], padded with dots to exactly [len] bytes. *)
let make_value ~len key stamp =
  let s = Printf.sprintf "%s|%016x" key (stamp land 0xFFFF_FFFF_FFFF) in
  if String.length s >= len then s
  else s ^ String.make (len - String.length s) '.'

let value_ok ~len key v =
  let p = String.length key in
  String.length v = max len (p + 17)
  && String.length v > p
  && String.sub v 0 p = key
  && v.[p] = '|'

(** Initial score of zset member [m]: seeded, so a seed fixes the whole
    preloaded image. *)
let init_score ~seed m =
  let r = Prng.create ~seed:((seed * 1_000_003) + m) in
  Prng.below r 1_000_000

(* ---- ops ---- *)

(** What a reply must look like; the model in {!Check} interprets it. *)
type expect =
  | E_ok
  | E_queued
  | E_zrank
  | E_zscore of int  (** member *)
  | E_zincrby of int * int  (** member, delta *)
  | E_get of string  (** key whose tagged value must come back *)
  | E_incr of int  (** counter *)
  | E_mget of string array
  | E_ttl
  | E_ttl_get of string
  | E_exec of txn

and txn = {
  watched : bool;
  a : int;  (** counters incremented by the body *)
  b : int;
  zm : int;  (** zset member and delta *)
  zd : int;
}

type op = { kind : kind; cmds : (string list * expect) array }

type gen = {
  spec : spec;
  rng : Prng.t;
  zv : Zipf.t option;
  zc : Zipf.t option;
  zm : Zipf.t option;
}

let zipf n theta = if n = 0 then None else Some (Zipf.create ~theta ~n ())

(** The op stream of connection [conn]: a pure function of
    ([spec], [seed], [conn]). *)
let generator spec ~seed ~conn =
  {
    spec;
    rng = Prng.create ~seed:((seed * 7919) + (conn * 104_729) + 17);
    zv = zipf spec.values spec.value_theta;
    zc = zipf spec.counters spec.counter_theta;
    zm = zipf spec.members spec.member_theta;
  }

let draw g = function
  | Some z -> Zipf.sample z g.rng
  | None -> invalid_arg "Workload: mix draws from an empty key space"

let pick_kind g =
  let r = Prng.below g.rng 100 in
  let rec go acc = function
    | [] -> invalid_arg "Workload: mix shares must sum to 100"
    | (k, w) :: rest -> if r < acc + w then k else go (acc + w) rest
  in
  go 0 g.spec.mix

let one toks e = [| (toks, e) |]
let delta g = if Prng.bool g.rng then 1 else -1

let next g =
  let s = g.spec in
  let kind = pick_kind g in
  let member () = draw g g.zm in
  let vkey () = value_key (draw g g.zv) in
  let cmds =
    match kind with
    | Zrank -> one [ "ZRANK"; s.zkey; string_of_int (member ()) ] E_zrank
    | Zscore ->
        let m = member () in
        one [ "ZSCORE"; s.zkey; string_of_int m ] (E_zscore m)
    | Zincrby ->
        let m = member () in
        let d = delta g in
        one
          [ "ZINCRBY"; s.zkey; string_of_int d; string_of_int m ]
          (E_zincrby (m, d))
    | Get ->
        let k = vkey () in
        one [ "GET"; k ] (E_get k)
    | Set ->
        let k = vkey () in
        one [ "SET"; k; make_value ~len:s.value_len k (Prng.next g.rng) ] E_ok
    | Incr ->
        let c = draw g g.zc in
        one [ "INCR"; counter_key c ] (E_incr c)
    | Mget ->
        let ks = Array.init s.mget (fun _ -> vkey ()) in
        one ("MGET" :: Array.to_list ks) (E_mget ks)
    | Mset ->
        let kvs =
          List.concat
            (List.init s.mset (fun _ ->
                 let k = vkey () in
                 [ k; make_value ~len:s.value_len k (Prng.next g.rng) ]))
        in
        one ("MSET" :: kvs) E_ok
    | Ttl_read -> one [ "TTL"; ttl_key (Prng.below g.rng s.ttl_keys) ] E_ttl
    | Ttl_get ->
        let k = ttl_key (Prng.below g.rng s.ttl_keys) in
        one [ "GET"; k ] (E_ttl_get k)
    | Txn ->
        let watched = Prng.below g.rng 100 < s.watch_pct in
        let a = draw g g.zc and b = draw g g.zc in
        let zm = member () and zd = delta g in
        let t = ttl_key (Prng.below g.rng s.ttl_keys) in
        let body =
          [
            ([ "MULTI" ], E_ok);
            ([ "INCR"; counter_key a ], E_queued);
            ([ "INCR"; counter_key b ], E_queued);
            ( [ "ZINCRBY"; s.zkey; string_of_int zd; string_of_int zm ],
              E_queued );
            ([ "SET"; t; make_value ~len:s.value_len t (Prng.next g.rng) ], E_queued);
            ([ "EXPIRE"; t; "1" ], E_queued);
            ([ "EXEC" ], E_exec { watched; a; b; zm; zd });
          ]
        in
        Array.of_list
          (if watched then ([ "WATCH"; counter_key a ], E_ok) :: body else body)
  in
  { kind; cmds }

(* ---- preload ---- *)

(** The requests that build the initial image: MSET batches for string
    keys, one ZADD per member.  Values and scores derive from [seed]. *)
let preload s ~seed =
  let chunked n key value =
    List.init ((n + 99) / 100) (fun c ->
        "MSET"
        :: List.concat
             (List.init
                (min 100 (n - (c * 100)))
                (fun j ->
                  let k = key ((c * 100) + j) in
                  [ k; value k ])))
  in
  let stamp k = Hashtbl.hash (seed, k) in
  let tagged k = make_value ~len:s.value_len k (stamp k) in
  chunked s.values value_key tagged
  @ chunked s.counters counter_key (fun _ -> "0")
  @ chunked s.ttl_keys ttl_key tagged
  @ List.init s.members (fun m ->
        [ "ZADD"; s.zkey; string_of_int (init_score ~seed m); string_of_int m ])

let preload_dbsize s =
  s.values + s.counters + s.ttl_keys + if s.members > 0 then 1 else 0

(* ---- wire bytes ---- *)

let add_request buf toks =
  Buffer.add_char buf '*';
  Buffer.add_string buf (string_of_int (List.length toks));
  Buffer.add_string buf "\r\n";
  List.iter
    (fun t ->
      Buffer.add_char buf '$';
      Buffer.add_string buf (string_of_int (String.length t));
      Buffer.add_string buf "\r\n";
      Buffer.add_string buf t;
      Buffer.add_string buf "\r\n")
    toks

let add_op buf op = Array.iter (fun (toks, _) -> add_request buf toks) op.cmds
