(* In-memory trace spans, written out once when the run ends.

   A span is recorded around one call from the benchmark into a layer's
   public entry point. Spans of one operation (a check or a served burst)
   share its [op] id; [parent] is the enclosing span's id, -1 at the top.
   Recording is off unless [enable] was called, so the untraced phase pays
   one branch per would-be span. *)

type t = {
  id : int;
  name : string;
  op : int;
  parent : int;
  start_ns : int64;
  end_ns : int64;
}

let recording = ref false
let enable on = recording := on
let lock = Mutex.create ()
let all : t list ref = ref []
let next_id = Atomic.make 0
let fresh () = Atomic.fetch_and_add next_id 1

let add s =
  Mutex.lock lock;
  all := s :: !all;
  Mutex.unlock lock

(* Record an interval measured by the caller. *)
let record ~name ~op ~parent start_ns end_ns =
  if !recording then
    add { id = fresh (); name; op; parent; start_ns; end_ns }

(* Run [f id] inside a span; [id] parents the spans [f] records. *)
let within ~name ~op ~parent f =
  if not !recording then f (-1)
  else
    let id = fresh () in
    let start_ns = Obs.Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        add { id; name; op; parent; start_ns; end_ns = Obs.Clock.now_ns () })
      (fun () -> f id)

let count () = List.length !all

(* Share of the summed duration of the spans called [name] that none of
   their direct children covers — the time the trace cannot attribute. *)
let uncovered_share name =
  let spans = !all in
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  let total = ref 0L and uncovered = ref 0L in
  List.iter
    (fun p ->
      if p.name = name then begin
        let kids =
          Hashtbl.find_all children p.id
          |> List.map (fun c ->
                 (max c.start_ns p.start_ns, min c.end_ns p.end_ns))
          |> List.filter (fun (a, b) -> b > a)
          |> List.sort compare
        in
        let covered, _ =
          List.fold_left
            (fun (acc, reach) (a, b) ->
              let a = max a reach in
              if b > a then (Int64.add acc (Int64.sub b a), b)
              else (acc, reach))
            (0L, p.start_ns) kids
        in
        let dur = Int64.sub p.end_ns p.start_ns in
        total := Int64.add !total dur;
        uncovered := Int64.add !uncovered (Int64.sub dur covered)
      end)
    spans;
  if !total = 0L then nan
  else Int64.to_float !uncovered /. Int64.to_float !total

let to_json () =
  let module J = Obs.Json in
  J.List
    (List.rev_map
       (fun s ->
         J.Obj
           [
             ("id", J.Int s.id);
             ("name", J.Str s.name);
             ("op", J.Int s.op);
             ("parent", J.Int s.parent);
             ("start_ns", J.Str (Int64.to_string s.start_ns));
             ("end_ns", J.Str (Int64.to_string s.end_ns));
           ])
       !all)
