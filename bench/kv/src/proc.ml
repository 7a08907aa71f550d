(** The server under test as a child process, and what [/proc] tells
    about it. *)

type server = { pid : int; port : int; stdout : Unix.file_descr }

(* every live child, killed by [kill_all] on any exit path *)
let live : int list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live := List.filter (( <> ) pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* Read stdout until the listening banner and take the port from it. *)
let await_banner fd ~timeout_s =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then Error "no listening banner"
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> Error ("server exited: " ^ Buffer.contents buf)
          | n -> (
              Buffer.add_subbytes buf chunk 0 n;
              let s = Buffer.contents buf in
              let marker = "listening on 127.0.0.1:" in
              match find_sub s marker with
              | Some i ->
                  let j = i + String.length marker in
                  let k = ref j in
                  while !k < String.length s && s.[!k] >= '0' && s.[!k] <= '9' do
                    incr k
                  done;
                  if !k = j || !k = String.length s then go ()
                  else Ok (int_of_string (String.sub s j (!k - j)))
              | None -> go ()))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(** Start [exe args] with [--port 0], its stderr to [log], and wait
    until it listens. *)
let spawn ~exe ~args ~log =
  let r, w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process exe
      (Array.of_list ((exe :: args) @ [ "--port"; "0" ]))
      null w err
  in
  live := pid :: !live;
  List.iter Unix.close [ w; err; null ];
  match await_banner r ~timeout_s:60. with
  | Ok port -> { pid; port; stdout = r }
  | Error e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid;
      Unix.close r;
      failwith (Printf.sprintf "%s %s: %s" exe (String.concat " " args) e)

(** SIGINT (the server flushes its AOF and exits), SIGKILL if it has not
    exited within 10 s. *)
let stop s =
  (try Unix.kill s.pid Sys.sigint with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap s.pid
        end
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
    | _ -> live := List.filter (( <> ) s.pid) !live
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  try Unix.close s.stdout with Unix.Unix_error _ -> ()

let read_file path =
  match open_in path with
  | ic ->
      let s = In_channel.input_all ic in
      close_in ic;
      Some s
  | exception Sys_error _ -> None

let fields_after_comm stat =
  (* the command name may contain spaces: fields restart after ')' *)
  let i = String.rindex stat ')' in
  String.sub stat (i + 2) (String.length stat - i - 2)
  |> String.split_on_char ' '
  |> Array.of_list

(** Server CPU time (user + system), in seconds. *)
let cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | Some s ->
      let f = fields_after_comm s in
      (* utime and stime are fields 14 and 15, in clock ticks of 1/100 s;
         [f] starts at field 3 *)
      (float_of_string f.(11) +. float_of_string f.(12)) /. 100.
  | None -> 0.

let status_kb pid field =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | Some s ->
      String.split_on_char '\n' s
      |> List.find_map (fun l ->
             if String.starts_with ~prefix:(field ^ ":") l then
               String.sub l (String.length field + 1)
                 (String.length l - String.length field - 1)
               |> String.trim
               |> String.split_on_char ' '
               |> List.hd |> int_of_string_opt
             else None)
      |> Option.value ~default:0
  | None -> 0

(** Peak resident set (VmHWM), in MB. *)
let peak_rss_mb pid = float_of_int (status_kb pid "VmHWM") /. 1024.

(** Read and write system calls so far ([syscr + syscw]). *)
let syscalls pid =
  match read_file (Printf.sprintf "/proc/%d/io" pid) with
  | Some s ->
      String.split_on_char '\n' s
      |> List.fold_left
           (fun acc l ->
             match String.split_on_char ' ' l with
             | [ ("syscr:" | "syscw:"); n ] -> acc + int_of_string n
             | _ -> acc)
           0
  | None -> 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
