(* Order statistics and process probes shared by the workloads. *)

let now = Unix.gettimeofday

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in [0, 100]. *)
let percentile (xs : float list) (p : float) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float n)) - 1)))

let median (xs : float list) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest of the usual tail percentiles that still has at least
   ten samples beyond it; the median when there are too few samples. *)
let tail_percentile (n : int) : float =
  List.find_opt
    (fun p -> float n *. (1.0 -. (p /. 100.0)) >= 10.0)
    [ 99.9; 99.5; 99.0; 98.0; 95.0; 90.0; 75.0 ]
  |> Option.value ~default:50.0

(* A field of /proc/<pid>/status in MB ("VmHWM" is the peak resident
   set); 0 where procfs is unavailable. *)
let proc_status_mb ?(pid = "self") (field : string) : float =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        (match Scanf.sscanf line "%s@: %d kB" (fun k v -> (k, v)) with
         | k, v when String.equal k field -> float v /. 1024.0
         | _ -> scan ()
         | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan
