(** Metric tables for people and the one-line JSON result for tools. *)

(** The metrics the JSON result carries, with their units: the
    [end_to_end] and [per_layer] lists of [BENCHMARK.json]. *)
let end_to_end = [ ("setup_s", "s"); ("loaded_rss_mb", "MB") ]

(** End-to-end metrics whose run-to-run spread is too wide for a bound;
    traced runs report them as [diag.<name>]. *)
let diag =
  [
    "closed_ops_s"; "cpu_us_per_op"; "p50_us_lo"; "p50_us_hi"; "p99_us_lo";
    "p99_us_hi"; "peak_rss_mb";
  ]

(* shard.single_us_p99, shard.cross_us_p99 and persist.tap_us_p50/p99
   are printed but left out: on the workloads without shards or an AOF
   they time a layer that is not there and would read 0 on every run *)
let per_layer =
  [
    ("net.self_us_p50", "us");
    ("net.self_us_p99", "us");
    ("net.reqs_per_batch", "count");
    ("net.steals_per_1k", "count");
    ("net.syscalls_per_op", "count");
    ("resp.parse_ns", "ns");
    ("resp.encode_ns", "ns");
    ("txn.session_self_us_p50", "us");
    ("txn.abort_ratio", "ratio");
    ("txn.evictions_per_s", "1/s");
    ("shard.cross_share", "ratio");
    ("shard.locks_per_op", "count");
    ("nr.read_us_p50", "us");
    ("nr.read_us_p99", "us");
    ("nr.opt_fallbacks_per_1k_reads", "count");
    ("nr.reader_refreshes_per_1k", "count");
    ("nr.update_us_p50", "us");
    ("nr.update_us_p99", "us");
    ("nr.avg_batch", "count");
    ("nr.combines_per_1k_updates", "count");
    ("store.exec_ns_mean", "ns");
    ("nr.overhead_ns", "ns");
    ("persist.fsyncs_per_1k_writes", "count");
    ("persist.compactions", "count");
    ("persist.recover_s", "s");
    ("gen.late_us_p99", "us");
    ("trace.overhead", "ratio");
    ("diag.closed_ops_s", "ops/s");
    ("diag.cpu_us_per_op", "us");
    ("diag.p50_us_lo", "us");
    ("diag.p50_us_hi", "us");
    ("diag.p99_us_lo", "us");
    ("diag.p99_us_hi", "us");
    ("diag.peak_rss_mb", "MB");
  ]

let print_table title (ms : E2e.metric list) =
  Printf.printf "== %s ==\n" title;
  List.iter
    (fun (m : E2e.metric) ->
      Printf.printf "  %-30s %14.4f %-6s %s\n" m.E2e.name m.E2e.value m.E2e.unit
        m.E2e.note)
    ms;
  flush stdout

(** Keep exactly [wanted] from [ms], checking units; a missing metric or
    a unit mismatch is an error. *)
let select wanted (ms : E2e.metric list) =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (m : E2e.metric) -> m.E2e.name = name) ms with
      | Some m when m.E2e.unit = unit && Float.is_finite m.E2e.value -> Ok m
      | Some m when m.E2e.unit = unit ->
          Error (Printf.sprintf "%s: not a number (%f)" name m.E2e.value)
      | Some m ->
          Error (Printf.sprintf "%s: unit %s, want %s" name m.E2e.unit unit)
      | None -> Error (Printf.sprintf "%s: not measured" name))
    wanted
  |> List.partition_map (function Ok m -> Left m | Error e -> Right e)

(* the shortest of %.15g / %.17g that reads back as [v] *)
let json_number v =
  let s = Printf.sprintf "%.15g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let json ~correct ~attempted ~failed (ms : (string * E2e.metric) list) =
  let fields =
    List.map
      (fun (key, (m : E2e.metric)) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" key
          (json_number m.E2e.value) m.E2e.unit)
      ms
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " fields)
