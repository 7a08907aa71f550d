(** One nonblocking RESP client connection, driven by {!Loadgen}'s
    single-threaded select loop.  TCP_NODELAY is set as real clients do,
    so any Nagle stall measured is the server's. *)

module Resp = Nr_kvstore.Resp

type t = {
  fd : Unix.file_descr;
  out : Buffer.t;  (** bytes not yet written *)
  mutable out_off : int;
  mutable inbuf : string;  (** unparsed reply bytes *)
  chunk : Bytes.t;
  mutable sent : int;  (** commands sent: the next command's sequence number *)
  mutable closed : bool;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  {
    fd;
    out = Buffer.create 65536;
    out_off = 0;
    inbuf = "";
    (* small reads bound how long one burst of replies (say, the backlog
       a stalled server releases at once) keeps the generator from
       sending ops that fall due meanwhile *)
    chunk = Bytes.create 4096;
    sent = 0;
    closed = false;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let pending_out t = Buffer.length t.out - t.out_off

(** Queue [ncmds] commands already encoded into [t.out] by the caller. *)
let queued t ncmds = t.sent <- t.sent + ncmds

(** Write as much queued output as the socket takes.  Raises
    [End_of_file] on a dead peer. *)
let flush t =
  let rec go () =
    let n = pending_out t in
    if n > 0 then
      match
        Unix.single_write_substring t.fd (Buffer.contents t.out) t.out_off n
      with
      | w ->
          t.out_off <- t.out_off + w;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> raise End_of_file
  in
  go ();
  if t.out_off > 0 && pending_out t = 0 then begin
    Buffer.clear t.out;
    t.out_off <- 0
  end

(** Read what the socket has and hand every complete reply to [f], in
    order.  Raises [End_of_file] on EOF or a protocol error. *)
let receive t f =
  match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
  | 0 -> raise End_of_file
  | n ->
      let data = t.inbuf ^ Bytes.sub_string t.chunk 0 n in
      let rec parse pos =
        match Resp.parse_reply ~pos data with
        | Resp.RParsed (r, used) ->
            f r;
            parse (pos + used)
        | Resp.RIncomplete -> pos
        | Resp.RInvalid _ -> raise End_of_file
      in
      let pos = parse 0 in
      t.inbuf <- String.sub data pos (String.length data - pos)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> raise End_of_file
