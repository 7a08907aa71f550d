(** One workload, end to end or traced. *)

type outcome = {
  metrics : E2e.metric list;
  attempted : int;
  failed : int;
  nesting : int;  (** traced spans outside their parent: the run fails *)
}

let print_table ~smoke title ms = if not smoke then Report.print_table title ms

let print_problems name ps =
  List.iter (fun p -> Printf.printf "  [%s] %s\n" name p) ps;
  flush stdout

(** Without [trace]: the end-to-end run, set up three times (the median
    set-up is reported).  With [trace] (and in [smoke]): an end-to-end
    run and then the traced run, each over half of [seconds], so a traced
    invocation takes about as long as an untraced one. *)
let workload ctx spec ~out ~trace ~smoke ~seconds =
  let name = spec.Workload.name in
  if not (trace || smoke) then begin
    let r =
      E2e.run ctx spec ~phases:(E2e.phases_of_seconds seconds) ~setups:3
        ~restart:false
    in
    print_table ~smoke (name ^ " (end to end)") r.E2e.metrics;
    print_problems name r.E2e.problems;
    {
      metrics = r.E2e.metrics;
      attempted = r.E2e.attempted;
      failed = r.E2e.failed;
      nesting = 0;
    }
  end
  else begin
    let phases =
      if smoke then E2e.smoke_phases else E2e.phases_of_seconds (seconds /. 2.)
    in
    let r = E2e.run ctx spec ~phases ~setups:1 ~restart:true in
    print_table ~smoke (name ^ " (end to end)") r.E2e.metrics;
    print_problems name r.E2e.problems;
    let trace_file =
      if smoke then None
      else
        Some
          (Filename.concat out
             (Printf.sprintf "trace-%s-seed%d.json" name ctx.E2e.seed))
    in
    let t =
      Traced.run ctx spec ~phases ~untraced_p50_us:r.E2e.p50_lo_us ~trace_file
    in
    print_table ~smoke (name ^ " (traced, per layer)") t.Traced.metrics;
    print_problems name t.Traced.problems;
    Option.iter (Printf.printf "  trace written to %s\n%!") trace_file;
    (* end-to-end numbers too noisy run to run to carry a bound (see
       README.md) ride along in the traced run under a diag. prefix *)
    let diag =
      List.filter_map
        (fun (m : E2e.metric) ->
          if List.mem m.E2e.name Report.diag then
            Some { m with E2e.name = "diag." ^ m.E2e.name }
          else None)
        r.E2e.metrics
    in
    {
      metrics = r.E2e.metrics @ t.Traced.metrics @ diag;
      attempted = r.E2e.attempted + t.Traced.attempted;
      failed = r.E2e.failed + t.Traced.failed;
      nesting = t.Traced.nesting;
    }
  end
