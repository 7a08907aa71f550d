(** The load generator: one thread driving two connections through a
    select loop.

    Closed loop: each connection sends a burst of [depth] ops in one
    write and sends the next burst when the last reply arrives; an op's
    latency runs from the burst's send.  Open loop: arrivals follow a
    seeded Poisson schedule, alternating connections, and are sent when
    due whatever is outstanding; latency runs from when the op was due,
    so a stall is charged to every op that queued behind it, and how late
    the generator sent each op is recorded. *)

module C = Nr_kvstore.Command
module W = Workload
module Prng = Nr_workload.Prng

let timeout_ns = 1_000_000_000

exception Fatal of string

let fatal fmt = Printf.ksprintf (fun m -> raise (Fatal m)) fmt

type pending = {
  op : W.op;
  t_due : int;  (** latency origin *)
  t_send : int;
  seq0 : int;  (** sequence number of the op's first command *)
  phase : int;
  mutable next : int;  (** index of the next expected reply *)
  mutable bad : bool;
}

(** What one phase measured. *)
type phase = {
  lat : Vec.t;  (** ns per completed op *)
  lat_slice : Vec.t;  (** the slice each op completed in (-1: after the window) *)
  late : Vec.t;  (** ns the generator sent each open-loop op late *)
  mutable in_window : int;  (** ops completed inside the phase window *)
  mutable attempted : int;
  mutable failed : int;
  mutable window_s : float;
  slices : Vec.t;  (** ops completed in each whole slice of the window *)
  slice_ns : Vec.t;  (** each whole slice's length *)
  ids : Vec.t;
      (** traced runs: (conn, seq0, commands, send ns, done ns) per
          completed op, flattened *)
}

let new_phase () =
  {
    lat = Vec.create ();
    lat_slice = Vec.create ();
    late = Vec.create ();
    in_window = 0;
    attempted = 0;
    failed = 0;
    window_s = 0.;
    slices = Vec.create ();
    slice_ns = Vec.create ();
    ids = Vec.create ();
  }

type conn = {
  id : int;
  mutable c : Conn.t;
  gen : W.gen;
  q : pending Queue.t;
}

type t = {
  spec : W.spec;
  model : Check.t;
  port : int;
  conns : conn array;
  phases : phase array;
  record_ids : bool;
  mutable on_issue : int -> W.op -> unit;
      (** tap on every op sent, with its phase (traced runs record them) *)
  mutable on_reply : int -> C.reply -> unit;
      (** tap on every load reply, with its phase *)
  mutable resets : int;  (** connections replaced after a failure *)
  mutable slice : int;  (** the running phase's current slice, -1 if none *)
}

(* ---- synchronous helpers (setup, audit) ---- *)

(* Wait up to 100 ms for [c] to become readable (or writable while it
   has output queued); true when readable. *)
let wait_readable (c : Conn.t) =
  let wr = if Conn.pending_out c > 0 then [ c.Conn.fd ] else [] in
  match Unix.select [ c.Conn.fd ] wr [] 0.1 with
  | r, _, _ -> r <> []
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(** Send [cmds] on [c] keeping at most [window] in flight; [f i reply]
    gets each reply in order.  Raises {!Fatal} on a dead or silent
    server. *)
let pipeline ?(window = 2000) (c : Conn.t) cmds f =
  let cmds = Array.of_list cmds in
  let n = Array.length cmds in
  let sent = ref 0 and got = ref 0 in
  let last = ref (Clock.now_ns ()) in
  while !got < n do
    while !sent < n && !sent - !got < window do
      W.add_request c.Conn.out cmds.(!sent);
      Conn.queued c 1;
      incr sent
    done;
    (try
       Conn.flush c;
       let before = !got in
       if wait_readable c then
         Conn.receive c (fun r ->
             f !got r;
             incr got);
       if !got > before then last := Clock.now_ns ()
     with End_of_file -> fatal "server closed the connection");
    if Clock.now_ns () - !last > 10 * timeout_ns then
      fatal "server stopped answering (%d of %d replies)" !got n
  done

let call c toks =
  let r = ref C.Nil in
  pipeline c [ toks ] (fun _ x -> r := x);
  !r

(** Open a connection and complete a PING round trip before returning,
    so a server numbering its connections in accept order numbers this
    one next. *)
let open_conn port =
  let c =
    try Conn.connect port
    with Unix.Unix_error (e, _, _) ->
      fatal "connect to port %d: %s" port (Unix.error_message e)
  in
  (match call c [ "PING" ] with
  | C.Pong -> ()
  | r -> fatal "PING answered %s" (Format.asprintf "%a" C.pp_reply r));
  c

let create ?(record_ids = false) spec ~seed ~port =
  let conns =
    Array.init 2 (fun id ->
        {
          id;
          c = open_conn port;
          gen = W.generator spec ~seed ~conn:id;
          q = Queue.create ();
        })
  in
  {
    spec;
    model = Check.create spec ~seed;
    port;
    conns;
    phases = Array.init 4 (fun _ -> new_phase ());
    record_ids;
    on_issue = (fun _ _ -> ());
    on_reply = (fun _ _ -> ());
    resets = 0;
    slice = -1;
  }

let close t = Array.iter (fun c -> Conn.close c.c) t.conns

(** Build the workload's image through connection 0. *)
let preload t ~seed =
  let c = t.conns.(0).c in
  let bad = ref 0 in
  pipeline c (W.preload t.spec ~seed) (fun _ r ->
      match r with C.Ok_reply | C.Int 1 -> () | _ -> incr bad);
  if !bad > 0 then fatal "%d preload commands failed" !bad

(** DBSIZE and ZCARD against the preload image; for [txn-ttl] keys may
    have expired, so DBSIZE is only bounded. *)
let verify_image t =
  let s = t.spec in
  let c = t.conns.(0).c in
  let want = W.preload_dbsize s in
  let problems = ref [] in
  (match call c [ "DBSIZE" ] with
  | C.Int n when n = want || (s.W.ttl_keys > 0 && n <= want) -> ()
  | r ->
      problems :=
        Format.asprintf "DBSIZE %a, want %d" C.pp_reply r want :: !problems);
  if s.W.members > 0 then (
    match call c [ "ZCARD"; s.W.zkey ] with
    | C.Int n when n = s.W.members -> ()
    | r ->
        problems :=
          Format.asprintf "ZCARD %a, want %d" C.pp_reply r s.W.members
          :: !problems);
  List.rev !problems

(* ---- the select loop ---- *)

let fail_op t (p : pending) =
  let ph = t.phases.(p.phase) in
  ph.failed <- ph.failed + 1;
  Check.doubt t.model p.op

let complete t cn (p : pending) now ~stop =
  if p.bad then fail_op t p
  else begin
    let ph = t.phases.(p.phase) in
    Vec.push ph.lat (now - p.t_due);
    Vec.push ph.lat_slice (if now <= stop then t.slice else -1);
    if now <= stop then begin
      ph.in_window <- ph.in_window + 1;
      if t.slice >= 0 then
        Vec.set ph.slices t.slice (1 + Vec.get0 ph.slices t.slice)
    end;
    (* every open-loop op (for per-request attribution), and a sample
       of the closed loop's for the trace file *)
    if t.record_ids && (p.phase >= 2 || Vec.length ph.ids < 5 * 2000) then
      List.iter (Vec.push ph.ids)
        [ cn.id; p.seq0; Array.length p.op.W.cmds; p.t_send; now ]
  end

let on_reply t cn ~stop r =
  match Queue.peek_opt cn.q with
  | None -> raise End_of_file
  | Some p ->
      t.on_reply p.phase r;
      let _, e = p.op.W.cmds.(p.next) in
      if not (Check.reply t.model e r) then p.bad <- true;
      p.next <- p.next + 1;
      if p.next = Array.length p.op.W.cmds then begin
        ignore (Queue.pop cn.q);
        complete t cn p (Clock.now_ns ()) ~stop
      end

(* A dead or silent connection fails everything it has outstanding and
   is replaced, so one stall cannot end the run. *)
let reset_conn t cn =
  t.resets <- t.resets + 1;
  Queue.iter (fail_op t) cn.q;
  Queue.clear cn.q;
  Conn.close cn.c;
  cn.c <- open_conn t.port

let issue t cn ~phase ~due ~now =
  let op = W.next cn.gen in
  Check.issue t.model op;
  t.on_issue phase op;
  let ph = t.phases.(phase) in
  ph.attempted <- ph.attempted + 1;
  W.add_op cn.c.Conn.out op;
  Queue.push
    { op; t_due = due; t_send = now; seq0 = cn.c.Conn.sent; phase; next = 0; bad = false }
    cn.q;
  Conn.queued cn.c (Array.length op.W.cmds)

type mode = Closed | Open of float

let slice_len = 500_000_000

(** Run one phase for [seconds]; ops still outstanding at the end are
    drained (and recorded) before returning.  The window is cut into
    slices of 0.5 s; [on_slice] runs at the start of each. *)
let run_phase ?(on_slice = fun () -> ()) t ~phase ~mode ~seconds ~seed =
  let ph = t.phases.(phase) in
  let start = Clock.now_ns () in
  let stop = start + int_of_float (seconds *. 1e9) in
  let slice_start = ref start in
  t.slice <- 0;
  on_slice ();
  let arrivals = Prng.create ~seed:((seed * 31) + phase) in
  let gap rate =
    (* exponential inter-arrival, mean 1/rate *)
    int_of_float (-.log (1. -. Prng.float arrivals) /. rate *. 1e9)
  in
  let next_due =
    ref (match mode with Open r -> start + gap r | Closed -> max_int)
  in
  let k = ref 0 in
  let finished = ref false in
  while not !finished do
    let now = Clock.now_ns () in
    if now < stop && now - !slice_start >= slice_len then begin
      Vec.push ph.slice_ns (now - !slice_start);
      slice_start := now;
      t.slice <- t.slice + 1;
      on_slice ()
    end;
    (match mode with
    | Closed ->
        if now < stop then
          Array.iter
            (fun cn ->
              if Queue.is_empty cn.q then
                for _ = 1 to t.spec.W.depth do
                  issue t cn ~phase ~due:now ~now
                done)
            t.conns
    | Open rate ->
        while !next_due <= now && !next_due < stop do
          let cn = t.conns.(!k land 1) in
          incr k;
          Vec.push ph.late (now - !next_due);
          issue t cn ~phase ~due:!next_due ~now;
          next_due := !next_due + gap rate
        done);
    Array.iter
      (fun cn -> try Conn.flush cn.c with End_of_file -> reset_conn t cn)
      t.conns;
    let busy = Array.exists (fun cn -> not (Queue.is_empty cn.q)) t.conns in
    if now >= stop && not busy then finished := true
    else begin
      let wake =
        match mode with
        | Open _ when !next_due < stop -> min !next_due stop
        | _ -> if now < stop then stop else now + 10_000_000
      in
      let tmo = float_of_int (max 0 (wake - now)) /. 1e9 in
      let tmo = Float.min tmo 0.01 in
      let rd =
        Array.to_list t.conns
        |> List.filter (fun cn -> not (Queue.is_empty cn.q))
        |> List.map (fun cn -> cn.c.Conn.fd)
      in
      let wr =
        Array.to_list t.conns
        |> List.filter (fun cn -> Conn.pending_out cn.c > 0)
        |> List.map (fun cn -> cn.c.Conn.fd)
      in
      let ready =
        match Unix.select rd wr [] tmo with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      Array.iter
        (fun cn ->
          if List.mem cn.c.Conn.fd ready then
            try Conn.receive cn.c (on_reply t cn ~stop)
            with End_of_file -> reset_conn t cn)
        t.conns;
      let now = Clock.now_ns () in
      Array.iter
        (fun cn ->
          match Queue.peek_opt cn.q with
          | Some p when now - p.t_send > timeout_ns -> reset_conn t cn
          | _ -> ())
        t.conns
    end
  done;
  t.slice <- -1;
  ph.window_s <- float_of_int (stop - start) /. 1e9

(** Ops per second in each whole slice of a phase. *)
let slice_rates ph =
  List.init (Vec.length ph.slice_ns) (fun i ->
      float_of_int (Vec.get0 ph.slices i)
      /. (float_of_int (Vec.get ph.slice_ns i) /. 1e9))

(** Latency percentile [p] (permyriad) within each whole slice. *)
let slice_percentiles ph p =
  let n = Vec.length ph.slice_ns in
  let per = Array.init n (fun _ -> Vec.create ()) in
  for i = 0 to Vec.length ph.lat - 1 do
    let s = Vec.get ph.lat_slice i in
    if s >= 0 && s < n then Vec.push per.(s) (Vec.get ph.lat i)
  done;
  Array.to_list per
  |> List.filter (fun v -> Vec.length v > 0)
  |> List.map (fun v -> float_of_int (Summary.percentile (Summary.sort (Vec.to_array v)) p))

(** Late-by p99 of an open-loop phase, in ns. *)
let late_p99 ph = Summary.percentile (Summary.sort (Vec.to_array ph.late)) 9900

let reset_phase t i = t.phases.(i) <- new_phase ()

(* ---- end-of-run audit ---- *)

(* GET every audited counter on [c]: (checks, mismatches) *)
let audit_counters c model ~what =
  let want = Array.of_list (Check.audit_counters model) in
  let bad = ref 0 in
  pipeline c
    (Array.to_list (Array.map (fun (k, _) -> [ "GET"; k ]) want))
    (fun i r ->
      let k, n = want.(i) in
      if r <> C.Bulk (string_of_int n) then begin
        incr bad;
        Check.note model
          (Format.asprintf "%s %s: %a, want %d" what k C.pp_reply r n)
      end);
  (Array.length want, !bad)

(** Compare every audited key against the model; returns (checks,
    mismatches), noting the first mismatches in the model. *)
let audit t =
  let c = t.conns.(0).c in
  let checks, bad = audit_counters c t.model ~what:"audit" in
  let want = Array.of_list (Check.audit_members t.model) in
  let zbad = ref 0 in
  pipeline c
    (Array.to_list
       (Array.map (fun (m, _) -> [ "ZSCORE"; t.spec.W.zkey; string_of_int m ]) want))
    (fun i r ->
      let m, v = want.(i) in
      if r <> C.Int v then begin
        incr zbad;
        Check.note t.model
          (Format.asprintf "audit member %d: %a, want %d" m C.pp_reply r v)
      end);
  let problems = verify_image t in
  List.iter (Check.note t.model) problems;
  ( checks + Array.length want + 1,
    bad + !zbad + if problems = [] then 0 else 1 )

(** Re-read the audited counters on a fresh connection (after a
    restart). *)
let reaudit_counters model port =
  let c = open_conn port in
  let r = audit_counters c model ~what:"after restart" in
  Conn.close c;
  r
