(** Spans recorded by the traced run, from the benchmark's own wrappers
    around the calls into each layer.

    A request's root span is the connection session's handling of one
    command; its children are the executor calls it made (NR or shard
    execute, the AOF tap).  Each connection numbers its commands, so a
    span is identified by (connection, sequence) exactly as the client
    numbers what it sends.  Spans stay in memory: per-request endpoints
    in unboxed vectors, child durations per phase and layer, and a
    bounded sample of whole spans for the Chrome trace file written at
    the end. *)

(* child span kinds *)
let k_nr_read = 0
let k_nr_update = 1
let k_shard_single = 2
let k_shard_cross = 3
let k_tap = 4
let kinds = 5
let kind_name = [| "nr.read"; "nr.update"; "shard.single"; "shard.cross"; "persist.tap" |]

(** Union length of the intervals [(t0, t1)] in [kids] (flattened
    [kind; t0; t1] triples), clipped to [start, stop]. *)
let covered ~start ~stop (kids : int array) n =
  let iv =
    Array.init n (fun i ->
        (max start kids.((3 * i) + 1), min stop kids.((3 * i) + 2)))
  in
  Array.sort compare iv;
  let total = ref 0 and cur_s = ref 0 and cur_e = ref min_int in
  Array.iter
    (fun (s, e) ->
      if e > s then
        if s > !cur_e then begin
          if !cur_e > !cur_s then total := !total + (!cur_e - !cur_s);
          cur_s := s;
          cur_e := e
        end
        else if e > !cur_e then cur_e := e)
    iv;
  if !cur_e > !cur_s then total := !total + (!cur_e - !cur_s);
  !total

(** A span's self time: its duration minus the part its children
    cover. *)
let self_ns ~start ~stop kids n = stop - start - covered ~start ~stop kids n

(** Children that do not lie inside [start, stop]. *)
let violations ~start ~stop (kids : int array) n =
  let bad = ref 0 in
  for i = 0 to n - 1 do
    let t0 = kids.((3 * i) + 1) and t1 = kids.((3 * i) + 2) in
    if t0 < start || t1 > stop || t1 < t0 then incr bad
  done;
  !bad

let now = Clock.now_ns

(** The phase the client is in (-1 outside measured traffic). *)
let phase = Atomic.make (-1)

let sample_per_phase = 300

type conn = {
  id : int;
  mutable seq : int;
  s_start : Vec.t;  (** by sequence number *)
  s_end : Vec.t;
  s_self : Vec.t array;  (** per phase: session self times *)
  child : Vec.t array array;  (** [phase].(kind): child durations *)
  mutable bad : int;  (** nesting violations *)
  sample : Vec.t;  (** phase, seq, kind (-1 = session), t0, t1 *)
  sampled : int array;  (** sampled requests per phase *)
}

type frame = {
  mutable owner : int;  (** thread inside a session span, -1 if none *)
  mutable rc : conn option;
  kids : Vec.t;
}

let frame_key =
  Domain.DLS.new_key (fun () -> { owner = -1; rc = None; kids = Vec.create ~cap:32 () })

let self_id () = Thread.id (Thread.self ())

(* spans with no session above them: the expiry thread's TICK/EVICT *)
let bg_m = Mutex.create ()
let bg_sample = Vec.create ()
let bg_child = Array.init 4 (fun _ -> Array.init kinds (fun _ -> Vec.create ()))

let conns_m = Mutex.create ()
let conns : conn list ref = ref []

let reset () =
  Mutex.lock conns_m;
  conns := [];
  Mutex.unlock conns_m;
  Mutex.lock bg_m;
  Vec.clear bg_sample;
  Array.iter (Array.iter Vec.clear) bg_child;
  Mutex.unlock bg_m;
  Atomic.set phase (-1)

let new_conn () =
  Mutex.lock conns_m;
  let c =
    {
      id = List.length !conns;
      seq = 0;
      s_start = Vec.create ();
      s_end = Vec.create ();
      s_self = Array.init 4 (fun _ -> Vec.create ());
      child = Array.init 4 (fun _ -> Array.init kinds (fun _ -> Vec.create ()));
      bad = 0;
      sample = Vec.create ();
      sampled = Array.make 4 0;
    }
  in
  conns := c :: !conns;
  Mutex.unlock conns_m;
  c

let all_conns () =
  Mutex.lock conns_m;
  let l = List.rev !conns in
  Mutex.unlock conns_m;
  l

(** Record a child span of the calling thread's open session span, or a
    root span if it has none. *)
let child kind t0 t1 =
  let fr = Domain.DLS.get frame_key in
  if fr.owner = self_id () && fr.rc <> None then begin
    Vec.push fr.kids kind;
    Vec.push fr.kids t0;
    Vec.push fr.kids t1
  end
  else begin
    let ph = Atomic.get phase in
    Mutex.lock bg_m;
    if ph >= 0 then Vec.push bg_child.(ph).(kind) (t1 - t0);
    if Vec.length bg_sample < 5 * 1000 then begin
      List.iter (Vec.push bg_sample) [ ph; -1; kind; t0; t1 ]
    end;
    Mutex.unlock bg_m
  end

let close_session c seq ~start ~stop (fr : frame) =
  Vec.set c.s_start seq start;
  Vec.set c.s_end seq stop;
  let kids = fr.kids.Vec.a and n = Vec.length fr.kids / 3 in
  c.bad <- c.bad + violations ~start ~stop kids n;
  let ph = Atomic.get phase in
  if ph >= 0 then begin
    Vec.push c.s_self.(ph) (self_ns ~start ~stop kids n);
    for i = 0 to n - 1 do
      Vec.push c.child.(ph).(kids.(3 * i)) (kids.((3 * i) + 2) - kids.((3 * i) + 1))
    done;
    if c.sampled.(ph) < sample_per_phase then begin
      c.sampled.(ph) <- c.sampled.(ph) + 1;
      List.iter (Vec.push c.sample) [ ph; seq; -1; start; stop ];
      for i = 0 to n - 1 do
        List.iter (Vec.push c.sample)
          [ ph; seq; kids.(3 * i); kids.((3 * i) + 1); kids.((3 * i) + 2) ]
      done
    end
  end

(** The session hook the traced server runs: {!Nr_txn.Session.hook}
    wrapped in a span per command.  A command the session passes through
    is executed here on the server's normal path, exactly what the server
    would do with [None]. *)
let hook : Nr_kvstore.Server.session_hook =
 fun ~exec ~clock ->
  let inner = Nr_txn.Session.hook ~exec ~clock in
  let c = new_conn () in
  fun cmd ->
    let fr = Domain.DLS.get frame_key in
    let seq = c.seq in
    c.seq <- seq + 1;
    fr.owner <- self_id ();
    fr.rc <- Some c;
    Vec.clear fr.kids;
    let start = now () in
    let finish () =
      let stop = now () in
      fr.owner <- -1;
      fr.rc <- None;
      close_session c seq ~start ~stop fr
    in
    match match inner cmd with Some r -> r | None -> exec cmd with
    | r ->
        finish ();
        Some r
    | exception e ->
        finish ();
        raise e

(* ---- Chrome trace_event output ---- *)

let phase_name = [| "warm"; "closed"; "lo"; "hi" |]

(** Write the sampled spans, plus [client] spans (conn, seq, name, t0,
    t1), as a Chrome trace_event JSON array.  Server spans sit on one
    lane per connection (they may run on any executor domain), client
    spans on their own lane per connection. *)
let write_chrome path ~origin ~client =
  let oc = open_out path in
  let first = ref true in
  let ev ~name ~cat ~tid ~t0 ~t1 ~args =
    if not !first then output_string oc ",\n";
    first := false;
    Printf.fprintf oc
      "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}"
      name cat tid
      (float_of_int (t0 - origin) /. 1000.)
      (float_of_int (t1 - t0) /. 1000.)
      args
  in
  output_string oc "[\n";
  List.iter
    (fun (conn, seq, name, t0, t1) ->
      ev ~name ~cat:"client" ~tid:(100 + conn) ~t0 ~t1
        ~args:(Printf.sprintf "\"conn\":%d,\"seq\":%d" conn seq))
    client;
  List.iter
    (fun c ->
      let s = Vec.to_array c.sample in
      for i = 0 to (Array.length s / 5) - 1 do
        let ph = s.(5 * i) and seq = s.((5 * i) + 1) and k = s.((5 * i) + 2) in
        ev
          ~name:(if k < 0 then "session" else kind_name.(k))
          ~cat:(if k < 0 then "session" else "exec")
          ~tid:(200 + c.id) ~t0:s.((5 * i) + 3) ~t1:s.((5 * i) + 4)
          ~args:
            (Printf.sprintf "\"conn\":%d,\"seq\":%d,\"phase\":%S" c.id seq
               phase_name.(ph))
      done)
    (all_conns ());
  let s = Vec.to_array bg_sample in
  for i = 0 to (Array.length s / 5) - 1 do
    ev ~name:kind_name.(s.((5 * i) + 2)) ~cat:"background" ~tid:300
      ~t0:s.((5 * i) + 3) ~t1:s.((5 * i) + 4) ~args:""
  done;
  output_string oc "\n]\n";
  close_out oc
