(** Clock, statistics, child processes and output helpers shared by the
    benchmark's workloads. *)

external now : unit -> float = "pb_monotonic_s"
(** Monotonic wall clock, in seconds.  Wall time rather than processor
    time, so time spent waiting (page faults, children, I/O) counts. *)

external maxrss_kb : int -> int = "pb_maxrss_kb"

external allowed_cpus : unit -> int list = "pb_allowed_cpus"
external set_cpus : int list -> unit = "pb_set_cpus"

(** The CPUs the benchmark may run on, as it started. *)
let cpus = allowed_cpus ()

(** [f ()] with this process, and the children it spawns meanwhile, on
    [cpu] alone. *)
let on_cpu (cpu : int) (f : unit -> 'a) : 'a =
  set_cpus [ cpu ];
  Fun.protect ~finally:(fun () -> set_cpus cpus) f

(** Peak resident set of this process, MiB. *)
let self_rss_mb () = float_of_int (maxrss_kb 0) /. 1024.

(** Peak resident set of the largest child reaped so far, MiB. *)
let children_rss_mb () = float_of_int (maxrss_kb 1) /. 1024.

let time (f : unit -> 'a) : 'a * float =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---------------- statistics ---------------- *)

let geomean (xs : float list) : float =
  exp (Stats.mean (List.map log xs))

(** Mean of [xs] without its lowest and highest tenth. *)
let trimmed_mean (xs : float list) : float =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let k = n / 10 in
  Stats.mean (Array.to_list (Array.sub a k (n - (2 * k))))

(** Units per second of a closed loop, from its unit times in ms in the
    order they ran: the median over consecutive chunks of 8 units of each
    chunk's rate, so a slow episode of the host moves it no more than it
    moves the median latency. *)
let rate_per_s (ms : float list) : float =
  let rec chunks acc cur k = function
    | [] -> if cur = [] then acc else cur :: acc
    | x :: rest ->
      if k = 8 then chunks (cur :: acc) [ x ] 1 rest
      else chunks acc (x :: cur) (k + 1) rest
  in
  Stats.median
    (List.map
       (fun c ->
         float_of_int (List.length c) /. (List.fold_left ( +. ) 0. c /. 1000.))
       (chunks [] [] 0 ms))

(** A percentile is reported only with at least ten samples beyond it;
    [p90_ready n] says whether [n] samples qualify for p90. *)
let p90_ready n = n >= 100

(** Fisher-Yates shuffle driven by the workload seed. *)
let shuffle (rng : Prng.t) (xs : 'a list) : 'a list =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ---------------- child processes ---------------- *)

let rec waitpid_noeintr pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr pid

(** Run [prog args] to completion with stdin and stderr on /dev/null,
    returning its exit status, its standard output and its wall time from
    spawn to reap. *)
let run_process (prog : string) (args : string list) :
    Unix.process_status * string * float =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let t0 = now () in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) null wr null
  in
  Unix.close wr;
  let out = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read rd chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes out chunk 0 n;
      drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  let status = waitpid_noeintr pid in
  let dt = now () -. t0 in
  Unix.close rd;
  Unix.close null;
  (status, Buffer.contents out, dt)

let exited_ok = function Unix.WEXITED 0 -> true | _ -> false

(* ---------------- output ---------------- *)

(** Scratch directory for inputs and traces, inside the checkout. *)
let out_dir = "perfbench/out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(** Human-readable metric line, printed before the result line. *)
let info name value unit extra =
  Printf.printf "  %-34s %12.4f %-6s %s\n%!" name value unit extra

(** What one run of a workload produced: units attempted and failed
    (an output or verdict that differs from its reference), and the
    metric values by name. *)
type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

(** Counts of attempted and failed units, shared by a workload's loop
    and its gates. *)
type tally = { mutable tried : int; mutable bad : int }

let tally () = { tried = 0; bad = 0 }

(** Record one unit; [ok] false counts it failed and logs [what]. *)
let check (t : tally) (ok : bool) (what : unit -> string) : unit =
  t.tried <- t.tried + 1;
  if not ok then begin
    t.bad <- t.bad + 1;
    Printf.eprintf "perfbench: FAILED %s\n%!" (what ())
  end
