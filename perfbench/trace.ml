(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark around its calls into each
   layer: name, start, stop, parent span and request id. Each Domain
   appends to its own buffer (created on first use and registered
   under a lock), so recording never contends; [collect] merges the
   buffers once the run is over, and [write_chrome] writes them as
   Chrome trace-event JSON, which Perfetto opens. *)

type span = {
  sp_id : int;
  sp_parent : int;  (* 0: a root span *)
  sp_req : int;     (* request/node id; -1 outside any request *)
  sp_name : string;
  sp_start : float; (* seconds, Unix.gettimeofday *)
  sp_stop : float;
  sp_domain : int;
}

type buf = {
  mutable spans : span list;
  mutable stack : int list;  (* open span ids, innermost first *)
  mutable req : int;
}

let lock = Mutex.create ()
let buffers : buf list ref = ref []
let next_id = Atomic.make 1

let key : buf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b = { spans = []; stack = []; req = -1 } in
      Mutex.protect lock (fun () -> buffers := b :: !buffers);
      b)

let span (name : string) (f : unit -> 'a) : 'a =
  let b = Domain.DLS.get key in
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = match b.stack with p :: _ -> p | [] -> 0 in
  b.stack <- id :: b.stack;
  let start = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      let stop = Unix.gettimeofday () in
      b.stack <- List.tl b.stack;
      b.spans <-
        { sp_id = id; sp_parent = parent; sp_req = b.req; sp_name = name;
          sp_start = start; sp_stop = stop;
          sp_domain = (Domain.self () :> int) }
        :: b.spans)

(* A root span for one request or node: every span opened inside it
   carries [req]. *)
let request (name : string) (req : int) (f : unit -> 'a) : 'a =
  let b = Domain.DLS.get key in
  let outer = b.req in
  b.req <- req;
  Fun.protect (fun () -> span name f) ~finally:(fun () -> b.req <- outer)

let reset () : unit =
  Mutex.protect lock (fun () -> List.iter (fun b -> b.spans <- []) !buffers)

let collect () : span list =
  Mutex.protect lock (fun () ->
      List.sort
        (fun a b -> compare a.sp_start b.sp_start)
        (List.concat_map (fun b -> b.spans) !buffers))

let duration_ms (s : span) : float = (s.sp_stop -. s.sp_start) *. 1000.0

(* Summed duration of every span named [name], in ms. *)
let total_ms (spans : span list) (name : string) : float =
  List.fold_left
    (fun acc s -> if String.equal s.sp_name name then acc +. duration_ms s else acc)
    0.0 spans

let write_chrome (path : string) (spans : span list) : unit =
  let t0 = match spans with s :: _ -> s.sp_start | [] -> 0.0 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
       Printf.fprintf oc
         "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\
          \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
         (if i = 0 then "" else ",")
         s.sp_name s.sp_domain
         ((s.sp_start -. t0) *. 1e6)
         ((s.sp_stop -. s.sp_start) *. 1e6)
         s.sp_id s.sp_parent s.sp_req)
    spans;
  output_string oc "\n]}\n";
  close_out oc
