(* Tests for the benchmark's own machinery: the seeded generator, the
   order statistics, span self time and the nesting check, and the reply
   model. *)

open Kvbench_lib
module W = Workload
module C = Nr_kvstore.Command

let kind_name (k : W.kind) =
  match k with
  | W.Zrank -> "ZRANK"
  | W.Zscore -> "ZSCORE"
  | W.Zincrby -> "ZINCRBY"
  | W.Get -> "GET"
  | W.Set -> "SET"
  | W.Incr -> "INCR"
  | W.Mget -> "MGET"
  | W.Mset -> "MSET"
  | W.Txn -> "TXN"
  | W.Ttl_read -> "TTL"
  | W.Ttl_get -> "GET-TTL"

let ops spec ~seed ~conn n =
  let g = W.generator spec ~seed ~conn in
  List.init n (fun _ -> W.next g)

let stream_digest spec ~seed =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun conn -> List.iter (W.add_op buf) (ops spec ~seed ~conn 2000))
    [ 0; 1 ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* MD5 of the first 2000 ops of both connections at seed 1: a change to
   the generator changes the benchmark's inputs, and must show here *)
let golden =
  [
    ("leaderboard", "6e48e6e1657c2b418b46f7c621b78aa2");
    ("ingest-aof", "9c260cfaee8c297334b2b80441b66437");
    ("sharded-mix", "70c3fad6f1872b1c2d1bdf1cbe2aabf8");
    ("txn-ttl", "1cfe7b573e2f16055091561629ac84a6");
  ]

let test_golden () =
  let got = List.map (fun spec -> (spec.W.name, stream_digest spec ~seed:1)) W.all in
  Alcotest.(check (list (pair string string))) "seed 1 streams" golden got;
  List.iter
    (fun spec ->
      let d = List.assoc spec.W.name got in
      Alcotest.(check string) (spec.W.name ^ " same seed, same bytes") d
        (stream_digest spec ~seed:1);
      Alcotest.(check bool) (spec.W.name ^ " other seed, other bytes") true
        (d <> stream_digest spec ~seed:2))
    W.all

let test_shares () =
  let n = 100_000 in
  List.iter
    (fun spec ->
      let drawn = ops spec ~seed:7 ~conn:0 n in
      List.iter
        (fun (kind, pct) ->
          let got = List.length (List.filter (fun op -> op.W.kind = kind) drawn) in
          let share = 100. *. float_of_int got /. float_of_int n in
          if Float.abs (share -. float_of_int pct) > 1. then
            Alcotest.failf "%s: %s share %.2f%%, table %d%%" spec.W.name
              (kind_name kind) share pct)
        spec.W.mix;
      if spec.W.watch_pct > 0 then begin
        let txns = List.filter (fun op -> op.W.kind = W.Txn) drawn in
        let watched =
          List.filter
            (fun op -> match fst op.W.cmds.(0) with "WATCH" :: _ -> true | _ -> false)
            txns
        in
        let share =
          100. *. float_of_int (List.length watched) /. float_of_int (List.length txns)
        in
        if Float.abs (share -. float_of_int spec.W.watch_pct) > 1. then
          Alcotest.failf "%s: WATCH share %.2f%%" spec.W.name share
      end)
    W.all

(* every key or member an op names, with the zset it belongs to *)
let touches (op : W.op) =
  Array.to_list op.W.cmds
  |> List.concat_map (fun (toks, _) ->
         match toks with
         | ("ZRANK" | "ZSCORE") :: k :: m :: _ | "ZINCRBY" :: k :: _ :: m :: _ ->
             [ `Member (k, m) ]
         | ("GET" | "SET" | "INCR" | "TTL" | "EXPIRE" | "WATCH") :: k :: _ -> [ `Key k ]
         | "MGET" :: ks -> List.map (fun k -> `Key k) ks
         | "MSET" :: kvs ->
             List.filteri (fun i _ -> i mod 2 = 0) kvs |> List.map (fun k -> `Key k)
         | _ -> [])

let test_preload_covers () =
  List.iter
    (fun spec ->
      let store = Nr_kvstore.Store.create () in
      List.iter
        (fun toks ->
          match C.of_strings toks with
          | Ok c -> ignore (Nr_kvstore.Store.execute store c)
          | Error e -> Alcotest.fail e)
        (W.preload spec ~seed:3);
      let exec c = Nr_kvstore.Store.execute store c in
      Alcotest.(check bool) (spec.W.name ^ " DBSIZE") true
        (exec C.Dbsize = C.Int (W.preload_dbsize spec));
      let seen = Hashtbl.create 4096 in
      List.iter
        (fun op ->
          List.iter
            (fun t ->
              if not (Hashtbl.mem seen t) then begin
                Hashtbl.add seen t ();
                let present =
                  match t with
                  | `Key k -> exec (C.Exists k) = C.Int 1
                  | `Member (k, m) -> (
                      match exec (C.Zscore (k, int_of_string m)) with
                      | C.Int _ -> true
                      | _ -> false)
                in
                if not present then
                  Alcotest.failf "%s touches %s, which the preload lacks" spec.W.name
                    (match t with `Key k -> k | `Member (k, m) -> k ^ " member " ^ m)
              end)
            (touches op))
        (ops spec ~seed:3 ~conn:1 100_000))
    W.all

let test_percentiles () =
  let a n = Array.init n (fun i -> i + 1) in
  Alcotest.(check bool) "1000 samples support p99" true (Summary.supports 1000 9900);
  Alcotest.(check bool) "999 samples do not" false (Summary.supports 999 9900);
  Alcotest.(check (option int)) "999 -> p90" (Some 9000) (Summary.highest_supported 999);
  Alcotest.(check (option int)) "10000 -> p99.9" (Some 9990) (Summary.highest_supported 10_000);
  Alcotest.(check (option int)) "19 -> none" None (Summary.highest_supported 19);
  Alcotest.(check int) "p50 of 1..1000" 500 (Summary.percentile (a 1000) 5000);
  Alcotest.(check int) "p99 of 1..1000" 990 (Summary.percentile (a 1000) 9900);
  Alcotest.(check int) "10 beyond p99" 10 (Summary.beyond 1000 9900);
  Alcotest.(check string) "name" "p99.9" (Summary.pct_name 9990)

let test_quartiles () =
  let close = Alcotest.float 1e-9 in
  let q1, q3 = Summary.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "q1 1..10" 2.75 q1;
  Alcotest.check close "q3 1..10" 8.25 q3;
  let q1, q3 = Summary.quartiles [ 1.; 2. ] in
  Alcotest.check close "q1 of two" 0.75 q1;
  Alcotest.check close "q3 of two" 2.25 q3;
  let xs = [ 3.; 1.; 4.; 1.5; 9. ] in
  Alcotest.check close "median" 3. (Summary.median xs);
  Alcotest.check close "spread" ((6.5 -. 1.25) /. 3.) (Summary.spread xs)

let kids l = Array.of_list (List.concat_map (fun (a, b) -> [ 0; a; b ]) l)

let test_self_time () =
  let k = kids [ (10, 30); (20, 50); (60, 70) ] in
  Alcotest.(check int) "overlapping children" 50 (Spans.self_ns ~start:0 ~stop:100 k 3);
  Alcotest.(check int) "no children" 100 (Spans.self_ns ~start:0 ~stop:100 [||] 0);
  let k = kids [ (0, 100); (40, 60) ] in
  Alcotest.(check int) "child covering all" 0 (Spans.self_ns ~start:0 ~stop:100 k 2);
  let k = kids [ (90, 120) ] in
  Alcotest.(check int) "clipped to the parent" 90 (Spans.self_ns ~start:0 ~stop:100 k 1)

let test_nesting () =
  let good = kids [ (10, 30); (30, 100) ] in
  Alcotest.(check int) "well nested" 0 (Spans.violations ~start:0 ~stop:100 good 2);
  let bad = kids [ (10, 30); (90, 120); (-5, 5); (50, 40) ] in
  Alcotest.(check int) "crafted bad trace" 3 (Spans.violations ~start:0 ~stop:100 bad 4)

let test_model () =
  let spec = Option.get (W.find "txn-ttl") in
  let m = Check.create spec ~seed:1 in
  let txn watched = { W.watched; a = 1; b = 2; zm = 3; zd = 1 } in
  Alcotest.(check bool) "EXEC nil without WATCH fails" false
    (Check.reply m (W.E_exec (txn false)) C.Nil);
  Alcotest.(check bool) "EXEC nil after WATCH is an abort" true
    (Check.reply m (W.E_exec (txn true)) C.Nil);
  Alcotest.(check int) "abort counted" 1 m.Check.aborts;
  let op = { W.kind = W.Incr; cmds = [| ([ "INCR"; "c5" ], W.E_incr 5) |] } in
  Check.issue m op;
  Alcotest.(check bool) "INCR beyond issued fails" false (Check.reply m (W.E_incr 5) (C.Int 2));
  Check.issue m op;
  Alcotest.(check bool) "INCR within issued" true (Check.reply m (W.E_incr 5) (C.Int 2));
  Alcotest.(check (list (pair string int))) "audit wants acked count" [ ("c5", 1) ]
    (Check.audit_counters m);
  let sm = Option.get (W.find "sharded-mix") in
  let m = Check.create sm ~seed:1 in
  let v k = C.Bulk (W.make_value ~len:sm.W.value_len k 42) in
  Alcotest.(check bool) "MGET short array fails" false
    (Check.reply m (W.E_mget [| "v1"; "v2" |]) (C.Array [ v "v1" ]));
  Alcotest.(check bool) "MGET wrong key's value fails" false
    (Check.reply m (W.E_mget [| "v1"; "v2" |]) (C.Array [ v "v1"; v "v1" ]));
  Alcotest.(check bool) "MGET ok" true
    (Check.reply m (W.E_mget [| "v1"; "v2" |]) (C.Array [ v "v1"; v "v2" ]))

let () =
  Alcotest.run "kvbench"
    [
      ( "generator",
        [
          Alcotest.test_case "seeded stream is byte-identical" `Quick test_golden;
          Alcotest.test_case "op shares match the mix table" `Quick test_shares;
          Alcotest.test_case "preload covers every touched key" `Slow test_preload_covers;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentile with ten beyond" `Quick test_percentiles;
          Alcotest.test_case "quartiles as Python's" `Quick test_quartiles;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time, overlapping children" `Quick test_self_time;
          Alcotest.test_case "nesting check" `Quick test_nesting;
        ] );
      ("model", [ Alcotest.test_case "reply checks" `Quick test_model ]);
    ]
