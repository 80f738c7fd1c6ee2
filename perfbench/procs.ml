(* [wfa serve] child processes: spawn on a kernel-chosen TCP port, learn
   the bound address from the startup line, stop and reap. *)

type t = { pid : int; addr : string; log : string }

let live : t list ref = ref []

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> In_channel.input_all ic)

(* "wfa serve: listening on tcp:127.0.0.1:PORT (workers ...)" *)
let bound_addr text =
  let key = "listening on " in
  let kl = String.length key in
  let rec find i =
    if i + kl > String.length text then None
    else if String.sub text i kl = key then
      let j = i + kl in
      let k =
        try String.index_from text j ' ' with Not_found -> String.length text
      in
      Some (String.trim (String.sub text j (k - j)))
    else find (i + 1)
  in
  find 0

let reap pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let stop p =
  live := List.filter (fun q -> q.pid <> p.pid) !live;
  (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = Unix.gettimeofday () in
  let rec wait () =
    if reap p.pid then ()
    else if Unix.gettimeofday () -. t0 > 5. then begin
      (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] p.pid)
    end
    else (Unix.sleepf 0.005; wait ())
  in
  wait ()

let stop_all () = List.iter stop !live

let spawn ~wfa ~dir ~tag ~workers =
  let log = Filename.concat dir (tag ^ ".log") in
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv =
    [| wfa; "serve"; "--listen"; "tcp:127.0.0.1:0";
       "--workers"; string_of_int workers |]
  in
  let pid = Unix.create_process wfa argv null out out in
  Unix.close out;
  Unix.close null;
  let t0 = Unix.gettimeofday () in
  let rec wait () =
    match bound_addr (read_file log) with
    | Some addr ->
      let p = { pid; addr; log } in
      live := p :: !live;
      p
    | None ->
      if reap pid then
        failwith (Printf.sprintf "%s exited before listening" tag)
      else if Unix.gettimeofday () -. t0 > 20. then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        failwith (Printf.sprintf "%s never announced its address" tag)
      end
      else (Unix.sleepf 0.002; wait ())
  in
  wait ()

(* Peak resident set (VmHWM) of a process in MiB; [None] once it is gone. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  let text = read_file path in
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
           Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
               float_of_int kb /. 1024.)
         | _ -> None)
