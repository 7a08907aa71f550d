(** One end-to-end run: the real [kv_server] binary in a child process,
    driven over loopback through the four phases, then audited. *)

module W = Workload
module L = Loadgen

type phases = { warm : float; closed : float; lo : float; hi : float }

(** Phase lengths for a run measuring [s] seconds, in the ratio
    2 : 8 : 6 : 6. *)
let phases_of_seconds s =
  let u = s /. 22. in
  { warm = 2. *. u; closed = 8. *. u; lo = 6. *. u; hi = 6. *. u }

let smoke_phases = { warm = 0.5; closed = 0.5; lo = 0.5; hi = 0.5 }

type metric = { name : string; value : float; unit : string; note : string }

let metric ?(note = "") name unit value = { name; value; unit; note }

type result = {
  metrics : metric list;
  attempted : int;
  failed : int;
  problems : string list;  (** audit mismatches and invalid phases *)
  p50_lo_us : float;
}

let max_late_ns = 1_000_000

(* a phase too short for one whole slice falls back to its whole window *)
let median_or xs ~whole = if xs = [] then whole else Summary.median xs

(** A phase's p50 latency in µs: the median of its slices' medians, so
    a stall confined to a few slices moves it little. *)
let p50_us (ph : L.phase) =
  let whole = Summary.percentile (Summary.sort (Vec.to_array ph.L.lat)) 5000 in
  median_or
    (List.map (fun x -> x /. 1000.) (L.slice_percentiles ph 5000))
    ~whole:(float_of_int whole /. 1000.)

(** Median and tail of a phase's latencies, in µs; the tail is p99
    when the sample supports it (ten samples beyond), else the highest
    percentile that is. *)
let latency_metrics ~suffix (ph : L.phase) =
  let a = Summary.sort (Vec.to_array ph.L.lat) in
  let n = Array.length a in
  let us p = float_of_int (Summary.percentile a p) /. 1000. in
  let tail = if Summary.supports n 9900 then 9900 else Option.value ~default:5000 (Summary.highest_supported n) in
  let best =
    match Summary.highest_supported n with
    | Some p -> Summary.pct_name p
    | None -> "none"
  in
  [
    metric ("p50_us_" ^ suffix) "us" (p50_us ph)
      ~note:
        (Printf.sprintf "n=%d, median of %d slice medians, overall p50 %.1f" n
           (Vec.length ph.L.slice_ns) (us 5000));
    metric ("p99_us_" ^ suffix) "us" (us tail)
      ~note:
        (Printf.sprintf "n=%d, %d beyond, highest supported %s%s" n
           (Summary.beyond n tail) best
           (if tail <> 9900 then ", REPORTED " ^ Summary.pct_name tail else ""));
  ]

type ctx = {
  exe : string;  (** the kv_server binary *)
  tmp : string;  (** temporary directory for server logs and AOF dirs *)
  seed : int;
}

let server_args spec ~aof_dir =
  spec.W.flags @ if spec.W.aof then [ "--aof"; aof_dir ] else []

(** Run an open-loop phase, rerunning it once if the generator's p99
    lateness exceeds 1 ms. *)
let run_open l ~phase ~rate ~seconds ~seed ~problems =
  let rec go attempt =
    L.run_phase l ~phase ~mode:(L.Open rate) ~seconds ~seed:(seed + attempt);
    let late = L.late_p99 l.L.phases.(phase) in
    if late > max_late_ns then begin
      problems :=
        Printf.sprintf "open phase at %.0f/s invalid%s: p99 lateness %d us"
          rate
          (if attempt < 1 then ", rerun" else "")
          (late / 1000)
        :: !problems;
      if attempt < 1 then begin
        L.reset_phase l phase;
        go (attempt + 1)
      end
    end
  in
  go 0

(* Set-ups beyond the required ones continue, up to this many, while
   they have taken less than [setup_budget_s]: a set-up of tens of
   milliseconds needs more samples for a steady median. *)
let max_setups = 11
let setup_budget_s = 2.0

(** At least [setups] timed set-ups (spawn, listen, preload, verify),
    more when they are quick; all but the last are torn down.  With
    [restart] (and always with an AOF) the server is restarted afterwards
    on the same directory and timed to its listening banner. *)
let run ctx spec ~phases ~setups ~restart =
  let problems = ref [] in
  let aof_dir i = Filename.concat ctx.tmp (Printf.sprintf "aof-%s-%d" spec.W.name i) in
  let log i = Filename.concat ctx.tmp (Printf.sprintf "server-%s-%d.log" spec.W.name i) in
  let setup i =
    Proc.rm_rf (aof_dir i);
    let t0 = Clock.now_ns () in
    let srv =
      Proc.spawn ~exe:ctx.exe ~args:(server_args spec ~aof_dir:(aof_dir i)) ~log:(log i)
    in
    let l = L.create spec ~seed:ctx.seed ~port:srv.Proc.port in
    L.preload l ~seed:ctx.seed;
    (match L.verify_image l with
    | [] -> ()
    | ps -> L.fatal "preload image wrong: %s" (String.concat "; " ps));
    let dt = Clock.seconds_since t0 in
    (srv, l, dt, Proc.peak_rss_mb srv.Proc.pid)
  in
  let setup_times = ref [] and loaded_rss = ref [] in
  let rec setups_loop i =
    let srv, l, dt, rss = setup i in
    setup_times := dt :: !setup_times;
    loaded_rss := rss :: !loaded_rss;
    let spent = List.fold_left ( +. ) 0. !setup_times in
    if i + 1 < setups || (setups > 1 && i + 1 < max_setups && spent < setup_budget_s)
    then begin
      L.close l;
      Proc.stop srv;
      Proc.rm_rf (aof_dir i);
      setups_loop (i + 1)
    end
    else (srv, l, i)
  in
  let srv, l, last = setups_loop 0 in
  let pid = srv.Proc.pid in
  L.run_phase l ~phase:0 ~mode:L.Closed ~seconds:phases.warm ~seed:ctx.seed;
  let sys0 = Proc.syscalls pid in
  let cpu = Vec.create () in
  (* CPU seconds in µs at each slice boundary *)
  let on_slice () = Vec.push cpu (int_of_float (Proc.cpu_s pid *. 1e6)) in
  L.run_phase l ~on_slice ~phase:1 ~mode:L.Closed ~seconds:phases.closed
    ~seed:ctx.seed;
  on_slice ();
  let sys1 = Proc.syscalls pid in
  run_open l ~phase:2 ~rate:spec.W.rate_lo ~seconds:phases.lo ~seed:ctx.seed
    ~problems;
  run_open l ~phase:3 ~rate:spec.W.rate_hi ~seconds:phases.hi ~seed:ctx.seed
    ~problems;
  let checks, mismatches = L.audit l in
  let rss = Proc.peak_rss_mb pid in
  L.close l;
  Proc.stop srv;
  (* restart on the same directory: the AOF must give back every
     acknowledged counter *)
  let recover_s, re_checks, re_bad =
    if spec.W.aof || restart then begin
      let t0 = Clock.now_ns () in
      let srv2 =
        Proc.spawn ~exe:ctx.exe
          ~args:(server_args spec ~aof_dir:(aof_dir last))
          ~log:(log (last + 1))
      in
      let dt = Clock.seconds_since t0 in
      let c, b =
        if spec.W.aof then L.reaudit_counters l.L.model srv2.Proc.port
        else (0, 0)
      in
      Proc.stop srv2;
      (dt, c, b)
    end
    else (0., 0, 0)
  in
  Proc.rm_rf (aof_dir last);
  let ph = l.L.phases in
  let closed = ph.(1) in
  let ops_closed = closed.L.in_window in
  let attempted =
    Array.fold_left (fun a p -> a + p.L.attempted) 0 ph + checks + re_checks
  in
  let failed = Array.fold_left (fun a p -> a + p.L.failed) 0 ph + mismatches + re_bad in
  let lo = latency_metrics ~suffix:"lo" ph.(2) in
  let hi = latency_metrics ~suffix:"hi" ph.(3) in
  let per_op x = if ops_closed = 0 then 0. else x /. float_of_int ops_closed in
  (* throughput and CPU per op are medians over the closed window's
     0.5 s slices, so one stall (a compaction, a neighbour's burst) moves
     them little *)
  let slices = Vec.length closed.L.slice_ns in
  let cpu_per_op =
    List.init slices (fun i ->
        let ops = Vec.get0 closed.L.slices i in
        float_of_int (Vec.get cpu (i + 1) - Vec.get cpu i) /. float_of_int (max 1 ops))
  in
  let late_p99 =
    float_of_int (max (L.late_p99 ph.(2)) (L.late_p99 ph.(3))) /. 1000.
  in
  let metrics =
    [
      metric "setup_s" "s" (Summary.median !setup_times)
        ~note:(Printf.sprintf "median of %d" (List.length !setup_times));
      (* GC slack only ever adds memory: the least of the set-ups is the
         steadiest reading of what the preloaded image takes *)
      metric "loaded_rss_mb" "MB" (List.fold_left Float.min infinity !loaded_rss)
        ~note:
          (Printf.sprintf "server VmHWM after preload, least of %d"
             (List.length !loaded_rss));
      metric "closed_ops_s" "ops/s"
        (median_or (L.slice_rates closed)
           ~whole:(float_of_int ops_closed /. closed.L.window_s))
        ~note:
          (Printf.sprintf "depth %d x 2 conns, median of %d slices, mean %.0f"
             spec.W.depth slices
             (float_of_int ops_closed /. closed.L.window_s));
    ]
    @ lo @ hi
    @ [
        metric "fail_ratio" "ratio"
          (float_of_int failed /. float_of_int (max 1 attempted))
          ~note:(Printf.sprintf "%d of %d" failed attempted);
        metric "peak_rss_mb" "MB" rss ~note:"server VmHWM at the end of the run";
        metric "cpu_us_per_op" "us"
          (median_or cpu_per_op
             ~whole:
               (per_op (float_of_int (Vec.get cpu (Vec.length cpu - 1) - Vec.get cpu 0))))
          ~note:(Printf.sprintf "server utime+stime, median of %d slices" slices);
        metric "net.syscalls_per_op" "count"
          (per_op (float_of_int (sys1 - sys0)));
        metric "persist.recover_s" "s" recover_s;
        metric "gen.late_us_p99" "us" late_p99;
      ]
  in
  {
    metrics;
    attempted;
    failed;
    problems = List.rev_append !problems (List.rev l.L.model.Check.errors);
    p50_lo_us = p50_us ph.(2);
  }
