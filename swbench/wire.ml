(* A blocking client connection to the daemon, one request in flight,
   in either codec.  Replies come back as their raw bytes (a JSON line
   without its newline, or a whole binary frame) plus the decoded
   reply, so a sampled reply can be compared byte for byte. *)

module V1 = Api.V1

type codec = Json | Binary

let codec_name = function Json -> "json" | Binary -> "binary"

type t = { fd : Unix.file_descr; codec : codec; mutable buf : Bytes.t; mutable len : int }

let connect ~port codec =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; codec; buf = Bytes.create 65536; len = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let refill c =
  if c.len = Bytes.length c.buf then c.buf <- Bytes.extend c.buf 0 (Bytes.length c.buf);
  let n = Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) in
  if n = 0 then failwith "daemon closed the connection";
  c.len <- c.len + n

let take c n =
  let s = Bytes.sub_string c.buf 0 n in
  Bytes.blit c.buf n c.buf 0 (c.len - n);
  c.len <- c.len - n;
  s

let rec read_reply c =
  match c.codec with
  | Json -> (
      let rec newline i = if i >= c.len then None else if Bytes.get c.buf i = '\n' then Some i else newline (i + 1) in
      match newline 0 with
      | Some i ->
          let line = String.sub (take c (i + 1)) 0 i in
          (line, V1.reply_of_line line)
      | None ->
          refill c;
          read_reply c)
  | Binary -> (
      match Api.Binary.parse (Bytes.unsafe_to_string c.buf) ~pos:0 ~len:c.len with
      | Api.Binary.Frame { payload; consumed } ->
          let raw = take c consumed in
          (raw, Api.Binary.reply_of_payload payload)
      | Api.Binary.Need ->
          refill c;
          read_reply c
      | Api.Binary.Oversized _ | Api.Binary.Bad_version _ | Api.Binary.Bad _ ->
          failwith "malformed binary reply frame")

let encode_request codec envelope =
  match codec with
  | Json -> V1.request_line envelope ^ "\n"
  | Binary -> Api.Binary.request_frame envelope

(* The bytes the daemon must send for [reply] in [codec]. *)
let encode_reply codec reply =
  match codec with
  | Json -> V1.reply_line reply
  | Binary -> Api.Binary.reply_frame reply

let rpc c envelope =
  send_all c.fd (encode_request c.codec envelope);
  read_reply c
