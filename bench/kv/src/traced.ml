(** The traced run: the serving stack [kv_server] builds, rebuilt
    in-process from the layers' public functions, with every call into a
    layer timed by the benchmark's own wrappers ({!Spans}), driven by the
    same generator as the end-to-end run. *)

module C = Nr_kvstore.Command
module Server = Nr_kvstore.Server
module Store = Nr_kvstore.Store
module Stats = Nr_core.Stats
module W = Workload
module L = Loadgen

type flags = {
  net : Server.net;
  workers : int;
  shards : int;
  fsync : string;
  snapshot_every : int option;
}

(** The composition a workload's [kv_server] flags select. *)
let parse_flags args =
  let int s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> failwith ("traced run: bad number " ^ s)
  in
  let rec go f = function
    | [] -> f
    | "--net" :: "evloop" :: r -> go { f with net = Server.Evloop } r
    | "--net" :: "pool" :: r -> go { f with net = Server.Pool } r
    | "--workers" :: n :: r -> go { f with workers = int n } r
    | "--shards" :: n :: r -> go { f with shards = int n } r
    | "--fsync" :: p :: r -> go { f with fsync = p } r
    | "--snapshot-every" :: n :: r -> go { f with snapshot_every = Some (int n) } r
    | x :: _ -> failwith ("traced run: unsupported server flag " ^ x)
  in
  go
    { net = Server.Pool; workers = 4; shards = 1; fsync = "every-n:32"; snapshot_every = None }
    args

(** What the serving layers expose to the traced run. *)
type serving = {
  execute : C.t -> C.reply;
  special : (C.t -> C.reply option) option;
  nr_stats : unit -> Stats.t;  (** a copy, summed over NR instances *)
  shard_counts : unit -> int * int * int;  (** single ops, cross ops, locks *)
  fsyncs : unit -> int;
  background : (unit -> unit) list;  (** threads kv_server runs beside serve *)
  close : unit -> unit;
}

let copy_stats xs =
  let acc = Stats.create () in
  List.iter (Stats.add acc) xs;
  acc

let now_ms_wall () = int_of_float (Unix.gettimeofday () *. 1000.)

let timed kind f cmd =
  let t0 = Spans.now () in
  let r = f cmd in
  Spans.child kind t0 (Spans.now ());
  r

let nr_kind cmd = if C.is_read_only cmd then Spans.k_nr_read else Spans.k_nr_update

(* Mirrors the single-log branch of bin/kv_server.ml: NR over Store, and
   with an AOF directory the persister fed by the log tap after every
   write, plus the background compaction thread. *)
let single (module R : Nr_runtime.Runtime_intf.S) ~register ~running ~compactions
    ~aof ~flags =
  let module Db = Nr_core.Node_replication.Make (R) (Store) in
  match aof with
  | None ->
      let db = Db.create (fun () -> Store.create ()) in
      {
        execute = (fun cmd -> register (); timed (nr_kind cmd) (Db.execute db) cmd);
        special = None;
        nr_stats = (fun () -> copy_stats [ Db.stats db ]);
        shard_counts = (fun () -> (0, 0, 0));
        fsyncs = (fun () -> 0);
        background = [];
        close = (fun () -> ());
      }
  | Some dir ->
      let policy =
        match Nr_persist.Aof.policy_of_string flags.fsync with
        | Ok p -> p
        | Error e -> failwith e
      in
      let fs = Nr_persist.Vfs.real ~root:dir in
      let background = flags.snapshot_every <> None in
      let p, _ =
        match
          Nr_persist.Persister.create fs ~policy ~now_ms:now_ms_wall
            ?snapshot_every:flags.snapshot_every ~background ()
        with
        | Ok pr -> pr
        | Error e -> failwith ("recovery failed: " ^ e)
      in
      let seed = Nr_persist.Persister.dump p in
      let db =
        Db.create (fun () ->
            let s = Store.create () in
            ignore (Store.load s seed);
            s)
      in
      let m = Mutex.create () in
      let locked f =
        Mutex.lock m;
        Fun.protect ~finally:(fun () -> Mutex.unlock m) f
      in
      let tap_from = ref 0 in
      let drain_log () =
        match Db.Unsafe.log_tap db ~from:!tap_from with
        | Ok ops ->
            tap_from := !tap_from + List.length ops;
            Nr_persist.Persister.observe p ops
        | Error oldest ->
            failwith
              (Printf.sprintf "persistence overrun: cursor %d, log recycled below %d"
                 !tap_from oldest)
      in
      let exec cmd =
        register ();
        let reply = timed (nr_kind cmd) (Db.execute db) cmd in
        if not (C.is_read_only cmd) then begin
          let t0 = Spans.now () in
          locked drain_log;
          Spans.child Spans.k_tap t0 (Spans.now ())
        end;
        reply
      in
      let special = function
        | (C.Sync | C.Psync _) as cmd ->
            locked (fun () -> Nr_persist.Persister.handle_sync p cmd)
        | _ -> None
      in
      let compactor () =
        while Atomic.get running do
          let due = locked (fun () -> Nr_persist.Persister.compaction_due p) in
          if due then begin
            let upto, dump = locked (fun () -> Nr_persist.Persister.compaction_begin p) in
            Nr_persist.Persister.compaction_write p ~upto ~dump;
            locked (fun () -> Nr_persist.Persister.compaction_finish p ~upto);
            if Atomic.get Spans.phase >= 1 then Atomic.incr compactions
          end;
          Thread.delay 0.02
        done
      in
      {
        execute = exec;
        special = Some special;
        nr_stats = (fun () -> copy_stats [ Db.stats db ]);
        shard_counts = (fun () -> (0, 0, 0));
        fsyncs = (fun () -> locked (fun () -> Nr_persist.Persister.fsyncs p));
        background = (if background then [ compactor ] else []);
        close = (fun () -> locked (fun () -> Nr_persist.Persister.close p));
      }

(* Mirrors the sharded branch of bin/kv_server.ml.  A single-key call is
   both the shard layer's span and its NR instance's: the NR execute
   inside Sharded cannot be timed from outside it. *)
let sharded (module R : Nr_runtime.Runtime_intf.S) ~register ~wheel_route ~shards =
  let module Sh = Nr_shard.Sharded.Make (R) (Nr_shard.Kv_shard) in
  let db =
    Sh.create
      ~cfg:{ Nr_core.Config.default with shards }
      ~factory:(fun ~shard:_ ~shard_of:_ () -> Store.create ())
      ()
  in
  wheel_route := Nr_shard.Router.shard_of (Sh.router db);
  let exec cmd =
    register ();
    let t0 = Spans.now () in
    let r = Sh.execute db cmd in
    let t1 = Spans.now () in
    (match Nr_shard.Kv_shard.route cmd with
    | Nr_shard.Sharded.Single _ ->
        Spans.child Spans.k_shard_single t0 t1;
        Spans.child (nr_kind cmd) t0 t1
    | Nr_shard.Sharded.Cross -> Spans.child Spans.k_shard_cross t0 t1);
    r
  in
  {
    execute = exec;
    special = None;
    nr_stats = (fun () -> copy_stats (Array.to_list (Sh.nr_stats db)));
    shard_counts =
      (fun () ->
        let s = Sh.stats db in
        Nr_shard.Shard_stats.(total_single s, s.cross_ops, s.cross_locks));
    fsyncs = (fun () -> 0);
    background = [];
    close = (fun () -> ());
  }

type stack = {
  server : Server.t;
  serving : serving;
  running : bool Atomic.t;
  compactions : int Atomic.t;
  evictions : int Atomic.t;
  domain : unit Domain.t;
}

(** Build and start the stack [kv_server] would run for [spec]. *)
let start spec ~aof_dir =
  let flags = parse_flags spec.W.flags in
  let module R = (val Nr_runtime.Runtime_domains.make Nr_sim.Topology.tiny) in
  Store.read_clock := Some now_ms_wall;
  let next_tid = Atomic.make 0 in
  let register () =
    try ignore (R.tid ())
    with Invalid_argument _ ->
      Nr_runtime.Runtime_domains.register
        ~tid:(Atomic.fetch_and_add next_tid 1 mod R.max_threads ())
  in
  let running = Atomic.make true in
  let compactions = Atomic.make 0 and evictions = Atomic.make 0 in
  let wheels =
    Array.init (max 1 flags.shards) (fun _ ->
        (Mutex.create (), Nr_txn.Wheel.create ~start_ms:(now_ms_wall ()) ()))
  in
  let wheel_route = ref (fun (_ : string) -> 0) in
  let wheel_add k d =
    let m, w = wheels.(!wheel_route k) in
    Mutex.lock m;
    Nr_txn.Wheel.add w ~key:k ~deadline:d;
    Mutex.unlock m
  in
  let rec feed_wheel (cmd : C.t) (reply : C.reply) =
    match (cmd, reply) with
    | C.Pexpireat (k, d), C.Int 1 -> wheel_add k d
    | C.Txn (_, body), C.Array rs when List.length body = List.length rs ->
        List.iter2 feed_wheel body rs
    | _ -> ()
  in
  let serving =
    if flags.shards <= 1 then
      single (module R) ~register ~running ~compactions
        ~aof:(if spec.W.aof then Some aof_dir else None)
        ~flags
    else sharded (module R) ~register ~wheel_route ~shards:flags.shards
  in
  let exec cmd =
    let reply = serving.execute cmd in
    feed_wheel cmd reply;
    (match (cmd, reply) with
    | C.Expire_evict _, C.Int 1 when Atomic.get Spans.phase >= 1 ->
        Atomic.incr evictions
    | _ -> ());
    reply
  in
  let expiry () =
    while Atomic.get running do
      Thread.delay 0.01;
      let now = now_ms_wall () in
      let due =
        Array.fold_left
          (fun acc (m, w) ->
            if Nr_txn.Wheel.is_empty w then acc
            else begin
              Mutex.lock m;
              let d = Nr_txn.Wheel.advance w ~now in
              Mutex.unlock m;
              acc @ d
            end)
          [] wheels
      in
      if due <> [] then begin
        ignore (exec (C.Tick now));
        List.iter (fun (k, d) -> ignore (exec (C.Expire_evict (k, d)))) due
      end
    done
  in
  let obs = Nr_kvstore.Kv_obs.create ~slowlog_capacity:32 ~slowlog_threshold:0 () in
  let server =
    Server.create ~obs ?special:serving.special ~session:Spans.hook
      ~clock:now_ms_wall ~net:flags.net ~nodes:1 ~port:0 ~workers:flags.workers
      exec
  in
  (* the accept/event loop and the background threads share one domain,
     as they share kv_server's main domain *)
  let domain =
    Domain.spawn (fun () ->
        let ths = List.map (fun f -> Thread.create f ()) (expiry :: serving.background) in
        Server.serve server;
        Atomic.set running false;
        List.iter Thread.join ths)
  in
  { server; serving; running; compactions; evictions; domain }

let stop st =
  Atomic.set st.running false;
  Server.shutdown st.server;
  Domain.join st.domain;
  st.serving.close ()

(* ---- replays ---- *)

let median_of_runs k f =
  Summary.median (List.init k (fun _ -> f ()))

(** ns per request to parse the recorded request bytes, and per reply to
    encode the recorded replies. *)
let resp_costs ops replies =
  let buf = Buffer.create (1 lsl 20) in
  List.iter (W.add_op buf) ops;
  let bytes = Buffer.contents buf in
  let nreq = List.fold_left (fun a op -> a + Array.length op.W.cmds) 0 ops in
  let parse () =
    let t0 = Spans.now () in
    let rec go pos =
      match Nr_kvstore.Resp.parse_request ~pos bytes with
      | Nr_kvstore.Resp.Parsed (toks, used) ->
          ignore (Sys.opaque_identity (C.of_strings toks));
          go (pos + used)
      | _ -> ()
    in
    go 0;
    float_of_int (Spans.now () - t0) /. float_of_int (max 1 nreq)
  in
  let replies = Array.of_list replies in
  let out = Buffer.create 4096 in
  let encode () =
    let t0 = Spans.now () in
    Array.iter
      (fun r ->
        Buffer.clear out;
        Nr_kvstore.Resp.encode_reply_buf out r)
      replies;
    float_of_int (Spans.now () - t0) /. float_of_int (max 1 (Array.length replies))
  in
  (median_of_runs 5 parse, median_of_runs 5 encode)

(** Replay [ops] through a session onto a bare [Store] holding the
    preload image; mean ns per store call for reads and for writes. *)
let store_costs spec ~seed ops =
  let s = Store.create () in
  List.iter
    (fun toks ->
      match C.of_strings toks with Ok c -> ignore (Store.execute s c) | Error _ -> ())
    (W.preload spec ~seed);
  let sum = [| 0; 0 |] and cnt = [| 0; 0 |] in
  let timed cmd =
    let t0 = Spans.now () in
    let r = Store.execute s cmd in
    let i = if C.is_read_only cmd then 0 else 1 in
    sum.(i) <- sum.(i) + (Spans.now () - t0);
    cnt.(i) <- cnt.(i) + 1;
    r
  in
  let hook = Nr_txn.Session.hook ~exec:timed ~clock:now_ms_wall in
  List.iter
    (fun op ->
      Array.iter
        (fun (toks, _) ->
          match C.of_strings toks with
          | Ok c -> ( match hook c with Some _ -> () | None -> ignore (timed c))
          | Error _ -> ())
        op.W.cmds)
    ops;
  let mean i = if cnt.(i) = 0 then 0. else float_of_int sum.(i) /. float_of_int cnt.(i) in
  (mean 0, mean 1, float_of_int (sum.(0) + sum.(1)) /. float_of_int (max 1 (cnt.(0) + cnt.(1))))

(* ---- the run ---- *)

let record_cap = 50_000

type result = {
  metrics : E2e.metric list;
  attempted : int;
  failed : int;
  nesting : int;
  problems : string list;
}

let run (ctx : E2e.ctx) spec ~(phases : E2e.phases) ~untraced_p50_us ~trace_file =
  Spans.reset ();
  let aof_dir = Filename.concat ctx.E2e.tmp ("aof-traced-" ^ spec.W.name) in
  Proc.rm_rf aof_dir;
  let origin = Spans.now () in
  let st = start spec ~aof_dir in
  let problems = ref [] in
  let l =
    try
      let l = L.create ~record_ids:true spec ~seed:ctx.E2e.seed ~port:(Server.port st.server) in
      L.preload l ~seed:ctx.E2e.seed;
      (match L.verify_image l with
      | [] -> ()
      | ps -> L.fatal "preload image wrong: %s" (String.concat "; " ps));
      l
    with e ->
      stop st;
      raise e
  in
  let ops = ref [] and nops = ref 0 and replies = ref [] and nrep = ref 0 in
  l.L.on_issue <-
    (fun ph op ->
      if ph = 1 && !nops < record_cap then begin
        ops := op :: !ops;
        incr nops
      end);
  l.L.on_reply <-
    (fun ph r ->
      if ph = 1 && !nrep < record_cap then begin
        replies := r :: !replies;
        incr nrep
      end);
  let in_phase i f =
    Atomic.set Spans.phase i;
    f ();
    Atomic.set Spans.phase (-1)
  in
  let seed = ctx.E2e.seed in
  let snap () =
    let sv = Server.stats st.server in
    let sched =
      match Server.sched_stats st.server with
      | Some s -> (s.Nr_net.Sched.stolen, s.Nr_net.Sched.executed)
      | None -> (0, 0)
    in
    ( st.serving.nr_stats (),
      st.serving.shard_counts (),
      (sv.Server.ev_requests, sv.Server.ev_batches),
      sched,
      st.serving.fsyncs () )
  in
  let finally () = stop st in
  let body () =
    in_phase 0 (fun () ->
        L.run_phase l ~phase:0 ~mode:L.Closed ~seconds:phases.E2e.warm ~seed);
    let s0 = snap () in
    in_phase 1 (fun () ->
        L.run_phase l ~phase:1 ~mode:L.Closed ~seconds:phases.E2e.closed ~seed);
    let s1 = snap () in
    in_phase 2 (fun () ->
        E2e.run_open l ~phase:2 ~rate:spec.W.rate_lo ~seconds:phases.E2e.lo ~seed
          ~problems);
    in_phase 3 (fun () ->
        E2e.run_open l ~phase:3 ~rate:spec.W.rate_hi ~seconds:phases.E2e.hi ~seed
          ~problems);
    let checks, bad = L.audit l in
    L.close l;
    (s0, s1, checks, bad)
  in
  let s0, s1, checks, bad =
    match body () with
    | r ->
        finally ();
        r
    | exception e ->
        L.close l;
        finally ();
        raise e
  in
  Proc.rm_rf aof_dir;
  let conns = Spans.all_conns () in
  (* per-layer samples *)
  let gather ph kind =
    let v = Vec.create () in
    List.iter
      (fun c -> Array.iter (Vec.push v) (Vec.to_array c.Spans.child.(ph).(kind)))
      conns;
    Array.iter (Vec.push v) (Vec.to_array Spans.bg_child.(ph).(kind));
    Summary.sort (Vec.to_array v)
  in
  let us a p = float_of_int (Summary.percentile a p) /. 1000. in
  let nr_read_lo = gather 2 Spans.k_nr_read in
  let nr_read_cl = gather 1 Spans.k_nr_read and nr_upd = gather 1 Spans.k_nr_update in
  let single = gather 1 Spans.k_shard_single and cross = gather 1 Spans.k_shard_cross in
  let tap = gather 1 Spans.k_tap in
  let sess_self =
    let v = Vec.create () in
    List.iter (fun c -> Array.iter (Vec.push v) (Vec.to_array c.Spans.s_self.(1))) conns;
    Summary.sort (Vec.to_array v)
  in
  (* client RTT minus the server's session spans for the same commands *)
  let nesting = ref (List.fold_left (fun a c -> a + c.Spans.bad) 0 conns) in
  let net_self ph =
    let ids = Vec.to_array l.L.phases.(ph).L.ids in
    let v = Vec.create () in
    for i = 0 to (Array.length ids / 5) - 1 do
      let conn = ids.(5 * i) and seq0 = ids.((5 * i) + 1) and n = ids.((5 * i) + 2) in
      let t_send = ids.((5 * i) + 3) and t_done = ids.((5 * i) + 4) in
      match List.find_opt (fun c -> c.Spans.id = conn) conns with
      | Some c when seq0 + n <= Vec.length c.Spans.s_end ->
          let kids = Array.make (3 * n) 0 in
          let server = ref 0 in
          for j = 0 to n - 1 do
            let a = Vec.get c.Spans.s_start (seq0 + j) and b = Vec.get c.Spans.s_end (seq0 + j) in
            kids.((3 * j) + 1) <- a;
            kids.((3 * j) + 2) <- b;
            server := !server + (b - a)
          done;
          nesting := !nesting + Spans.violations ~start:t_send ~stop:t_done kids n;
          Vec.push v (t_done - t_send - !server)
      | _ -> incr nesting
    done;
    Summary.sort (Vec.to_array v)
  in
  if l.L.resets > 0 then
    problems := "a connection was replaced: per-request attribution skipped" :: !problems;
  let self_lo = if l.L.resets = 0 then net_self 2 else [||] in
  let self_hi = if l.L.resets = 0 then net_self 3 else [||] in
  if !nesting > 0 then
    problems := Printf.sprintf "%d spans outside their parent" !nesting :: !problems;
  let nr0, (si0, cr0, lk0), (rq0, bt0), (stl0, ex0), fs0 = s0 in
  let nr1, (si1, cr1, lk1), (rq1, bt1), (stl1, ex1), fs1 = s1 in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let d f = f nr1 - f nr0 in
  let reads = d (fun s -> s.Stats.reads) and updates = d (fun s -> s.Stats.updates) in
  let combines = d (fun s -> s.Stats.combines) in
  let shard_ops = si1 - si0 + (cr1 - cr0) in
  let store_read, store_write, store_mean = store_costs spec ~seed (List.rev !ops) in
  let parse_ns, encode_ns = resp_costs (List.rev !ops) (List.rev !replies) in
  let mean a = Summary.mean a in
  let overhead =
    let nr_ = Array.length nr_read_cl and nu = Array.length nr_upd in
    if nr_ + nu = 0 then 0.
    else
      ((float_of_int nr_ *. (mean nr_read_cl -. store_read))
      +. (float_of_int nu *. (mean nr_upd -. store_write)))
      /. float_of_int (nr_ + nu)
  in
  let traced_p50 = E2e.p50_us l.L.phases.(2) in
  let measured_s = l.L.phases.(1).L.window_s +. l.L.phases.(2).L.window_s +. l.L.phases.(3).L.window_s in
  let m = E2e.metric in
  let n_note a = Printf.sprintf "n=%d" (Array.length a) in
  let metrics =
    [
      m "net.self_us_p50" "us" (us self_lo 5000) ~note:(n_note self_lo ^ ", lo phase");
      m "net.self_us_p99" "us" (us self_hi 9900) ~note:(n_note self_hi ^ ", hi phase");
      m "net.reqs_per_batch" "count" (ratio (rq1 - rq0) (bt1 - bt0));
      m "net.steals_per_1k" "count" (1000. *. ratio (stl1 - stl0) (ex1 - ex0));
      m "resp.parse_ns" "ns" parse_ns ~note:(Printf.sprintf "%d ops replayed" !nops);
      m "resp.encode_ns" "ns" encode_ns ~note:(Printf.sprintf "%d replies replayed" !nrep);
      m "txn.session_self_us_p50" "us" (us sess_self 5000) ~note:(n_note sess_self);
      m "txn.abort_ratio" "ratio"
        (ratio l.L.model.Check.aborts l.L.model.Check.execs)
        ~note:(Printf.sprintf "%d EXECs" l.L.model.Check.execs);
      m "txn.evictions_per_s" "1/s" (float_of_int (Atomic.get st.evictions) /. measured_s);
      m "shard.single_us_p99" "us" (us single 9900) ~note:(n_note single);
      m "shard.cross_us_p99" "us" (us cross 9900) ~note:(n_note cross);
      m "shard.cross_share" "ratio" (ratio (cr1 - cr0) shard_ops);
      m "shard.locks_per_op" "count" (ratio (lk1 - lk0) shard_ops);
      m "nr.read_us_p50" "us" (us nr_read_lo 5000) ~note:(n_note nr_read_lo ^ ", lo phase");
      m "nr.read_us_p99" "us" (us nr_read_lo 9900) ~note:(n_note nr_read_lo ^ ", lo phase");
      m "nr.opt_fallbacks_per_1k_reads" "count"
        (1000. *. ratio (d (fun s -> s.Stats.opt_fallbacks)) reads);
      m "nr.reader_refreshes_per_1k" "count"
        (1000. *. ratio (d (fun s -> s.Stats.reader_refreshes)) reads);
      m "nr.update_us_p50" "us" (us nr_upd 5000) ~note:(n_note nr_upd);
      m "nr.update_us_p99" "us" (us nr_upd 9900) ~note:(n_note nr_upd);
      m "nr.avg_batch" "count" (ratio (d (fun s -> s.Stats.combined_ops)) combines);
      m "nr.combines_per_1k_updates" "count" (1000. *. ratio combines updates);
      m "store.exec_ns_mean" "ns" store_mean;
      m "nr.overhead_ns" "ns" overhead;
      m "persist.tap_us_p50" "us" (us tap 5000) ~note:(n_note tap);
      m "persist.tap_us_p99" "us" (us tap 9900) ~note:(n_note tap);
      m "persist.fsyncs_per_1k_writes" "count"
        (1000. *. ratio (fs1 - fs0) (Array.length nr_upd));
      m "persist.compactions" "count" (float_of_int (Atomic.get st.compactions));
      m "trace.overhead" "ratio"
        (if untraced_p50_us > 0. then traced_p50 /. untraced_p50_us else 0.)
        ~note:(Printf.sprintf "traced p50_us_lo %.1f / untraced %.1f" traced_p50 untraced_p50_us);
    ]
  in
  (match trace_file with
  | None -> ()
  | Some path ->
      let client =
        List.concat_map
          (fun ph ->
            let ids = Vec.to_array l.L.phases.(ph).L.ids in
            List.init
              (min 600 (Array.length ids / 5))
              (fun i ->
                ( ids.(5 * i),
                  ids.((5 * i) + 1),
                  "client",
                  ids.((5 * i) + 3),
                  ids.((5 * i) + 4) )))
          [ 0; 1; 2; 3 ]
      in
      Spans.write_chrome path ~origin ~client);
  let attempted = Array.fold_left (fun a p -> a + p.L.attempted) 0 l.L.phases + checks in
  let failed = Array.fold_left (fun a p -> a + p.L.failed) 0 l.L.phases + bad in
  {
    metrics;
    attempted;
    failed;
    nesting = !nesting;
    problems = List.rev_append !problems (List.rev l.L.model.Check.errors);
  }
