(* kvbench: end-to-end RESP benchmark of kv_server, with a traced run
   that splits the time by layer.  See README.md.

     kvbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
             [--smoke]

   Without --trace it spawns bin/kv_server.exe per workload and reports
   the end-to-end metrics; with --trace it also rebuilds the serving
   stack in-process and reports the per-layer metrics.  The last line of
   standard output is one JSON object; the exit code is nonzero if any
   reply or audit check failed. *)

open Kvbench_lib

let usage () =
  prerr_endline
    "usage: kvbench [--workload NAME] [--seed N] [--seconds S] [--trace \
     [0|1]] [--smoke]";
  exit 2

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable smoke : bool;
}

let parse argv =
  let o = { workload = None; seed = 1; seconds = 22.; trace = false; smoke = false } in
  let num f s = match f s with Some v -> v | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        o.workload <- Some w;
        go rest
    | "--seed" :: n :: rest ->
        o.seed <- num int_of_string_opt n;
        go rest
    | "--seconds" :: n :: rest ->
        o.seconds <- num float_of_string_opt n;
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        o.trace <- v = "1";
        go rest
    | "--trace" :: rest ->
        o.trace <- true;
        go rest
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  if o.seconds <= 0. then usage ();
  o

(* bin/kv_server.exe next to this executable in dune's build tree *)
let server_exe () =
  let dir = Filename.dirname Sys.executable_name in
  Filename.concat dir (Filename.concat "../../bin" "kv_server.exe")

let out_dir () = if Sys.file_exists "bench/kv" then "bench/kv/out" else "out"

let () =
  let o = parse Sys.argv in
  let specs =
    match o.workload with
    | None -> Workload.all
    | Some w -> (
        match Workload.find w with
        | Some s -> [ s ]
        | None ->
            Printf.eprintf "unknown workload %S (one of: %s)\n" w
              (String.concat ", "
                 (List.map (fun s -> s.Workload.name) Workload.all));
            exit 2)
  in
  let specs = if o.smoke then List.map Workload.shrink specs else specs in
  let exe = server_exe () in
  if not (Sys.file_exists exe) then begin
    Printf.eprintf "kv_server not found at %s (build it with dune first)\n" exe;
    exit 2
  end;
  let out = out_dir () in
  let tmp = Filename.concat out (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  Proc.mkdir_p tmp;
  let cleanup () =
    Proc.kill_all ();
    Proc.rm_rf tmp
  in
  at_exit cleanup;
  List.iter
    (fun s ->
      Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ctx = { E2e.exe; tmp; seed = o.seed } in
  let results =
    List.map
      (fun spec ->
        try Ok (spec, Run.workload ctx spec ~out ~trace:o.trace ~smoke:o.smoke ~seconds:o.seconds)
        with
        | Loadgen.Fatal m | Failure m -> Error (spec, m))
      specs
  in
  let failed_runs =
    List.filter_map (function Error (s, m) -> Some (s, m) | Ok _ -> None) results
  in
  List.iter
    (fun (s, m) -> Printf.printf "%s: ABORTED: %s\n" s.Workload.name m)
    failed_runs;
  if failed_runs <> [] then exit 1;
  let oks = List.filter_map (function Ok r -> Some r | Error _ -> None) results in
  let single = List.length oks = 1 in
  let wanted =
    if o.smoke then Report.end_to_end @ Report.per_layer
    else if o.trace then Report.per_layer
    else Report.end_to_end
  in
  let problems = ref [] in
  let keyed =
    List.concat_map
      (fun (spec, (r : Run.outcome)) ->
        let ms, missing = Report.select wanted r.Run.metrics in
        problems := missing @ !problems;
        List.map
          (fun (m : E2e.metric) ->
            ((if single then m.E2e.name else spec.Workload.name ^ "." ^ m.E2e.name), m))
          ms)
      oks
  in
  let attempted = List.fold_left (fun a (_, r) -> a + r.Run.attempted) 0 oks in
  let failed = List.fold_left (fun a (_, r) -> a + r.Run.failed) 0 oks in
  let nesting = List.fold_left (fun a (_, r) -> a + r.Run.nesting) 0 oks in
  if nesting > 0 then
    problems := Printf.sprintf "%d traced spans outside their parent" nesting :: !problems;
  List.iter (fun p -> Printf.printf "PROBLEM: %s\n" p) !problems;
  let correct = failed = 0 && !problems = [] in
  if o.smoke then
    Printf.printf "smoke: %d workloads, %d ops, %d failed: %s\n"
      (List.length oks) attempted failed
      (if correct then "ok" else "FAILED")
  else
    print_endline (Report.json ~correct ~attempted ~failed keyed);
  exit (if correct then 0 else 1)
