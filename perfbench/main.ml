(* End-to-end and per-layer benchmark of the Spartan prover and the
   proving service.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   One process runs one workload. Set-up (circuit generation, pool and
   engine start, a warm-up prove and verify) runs three times and is
   timed on its own; the peak-RSS counter is reset after it, and the
   timed part then runs for S seconds of wall time. Every end-to-end
   time is read on a CPU clock (see [cpu]). With --trace 0 the last stdout
   line is a JSON object with the end-to-end metrics; with --trace 1 it
   carries the per-layer metrics of a traced replay (see replay.ml),
   whose proof bytes must equal the real prover's. Every proof is
   checked: bytes against the set-up reference, verification, and the
   prover's exact op counts. A broken check exits 1. *)

open Nocap_repro

let now = Unix.gettimeofday

(* End-to-end times are CPU times: a CPU clock leaves out the time a
   thread waits for a CPU, which on a shared host includes the time the
   hypervisor gives this guest's virtual CPUs to other guests. On a
   shared 2-core host, wall-clock medians of the same code spread by a
   quarter between runs. [cpu] is the process's user plus system time over
   all its threads; every prover here runs on a one-domain pool, so it is
   the prover's own time. [marked_cpu] reads the CPU clock of the thread
   that last called [mark_thread]: the proving service's runner. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

external mark_thread : unit -> unit = "perfbench_mark_thread"
external marked_cpu : unit -> float = "perfbench_marked_cpu"

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 1)
    fmt

(* --- statistics --------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile, at most p90, with at least ten samples beyond
   it; the median when there are too few samples for that to lie above
   it. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = min ((9 * n + 9) / 10) (n - 10) in
  if rank <= (n + 1) / 2 then median xs else a.(rank - 1)

(* --- process facts -------------------------------------------------------- *)

let status_kb key =
  let prefix = key ^ ":" in
  let len = String.length prefix in
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> fail "no %s in /proc/self/status" key
        | Some line when String.length line > len && String.sub line 0 len = prefix ->
          Scanf.sscanf (String.sub line len (String.length line - len)) " %d" Fun.id
        | Some _ -> go ()
      in
      go ())

(* Reset the kernel's peak-RSS mark to the current RSS, after shrinking
   the heap to the live data, so the peak belongs to the timed part. *)
let reset_peak_rss () =
  Gc.compact ();
  Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")

let peak_rss_mb () = float_of_int (status_kb "VmHWM") /. 1024.0

let nproc = Domain.recommended_domain_count ()

let host_facts ~domains ~runners =
  Printf.printf "host: nproc=%d pool_domains=%d runners=%d native=%s\n" nproc domains runners
    (Native.mode_to_string (Native.mode ()))

(* --- result line ------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let mi name value = m name "count" (float_of_int value)

let print_result ~attempted ~failed metrics =
  let correct = failed = 0 && List.for_all (fun x -> Float.is_finite x.value) metrics in
  let body =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} x.name x.value x.unit_)
         metrics)
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed body;
  print_newline ();
  if not correct then exit 1

(* Runs [f] at least [min] times and until [deadline] has passed. *)
let repeat_until ?(min = 1) deadline f =
  let rec go i = if i < min || now () < deadline then (f i; go (i + 1)) in
  go 0

(* Every workload proves on a one-domain pool, so kernels run serially on
   the calling domain. On a shared 2-core host a second domain made Orion
   proves about 1.4x faster but spread their times about three times
   wider, and made FRI proves slower. The service still runs two jobs at
   once, one per runner domain. *)
let pool_domains = 1
let fresh_pool () = Pool.create ~domains:pool_domains ()

(* Set up three times, each timed on the process CPU clock; keep the last
   state, and require every set-up to reach the same reference. *)
let setup3 ~teardown ~same setup =
  let times = ref [] in
  let rec go k prev =
    let t0 = cpu () in
    let st = setup () in
    times := (cpu () -. t0) :: !times;
    Option.iter
      (fun p ->
        if not (same p st) then fail "set-up %d produced a different reference proof" k;
        teardown p)
      prev;
    if k < 3 then go (k + 1) (Some st) else st
  in
  let st = go 1 None in
  (st, median !times)

(* Per-layer metrics the traced replay reports, in a fixed order. *)
let layer_metrics ~spans ~replay_walls ~prove_walls ~counts ~serve =
  let med name = median (List.map (fun sp -> Replay.total sp name) spans) in
  let s name = m (name ^ "_s") "s" (med name) in
  let unattributed =
    median (List.map2 (fun w sp -> w -. Replay.sum_spans sp) replay_walls spans)
  in
  List.map s
    [
      "sumcheck.sc1"; "sumcheck.sc2"; "mle.eq_table"; "sparse.spmv"; "sparse.spmv_transpose";
      "spartan.mtable_combine"; "r1cs.satisfied"; "r1cs.z"; "pcs.commit"; "pcs.open";
      "transcript.instance_digest"; "transcript.absorb"; "spill.io";
    ]
  @ counts
  @ serve
  @ [
      m "trace.prove_s" "s" (median prove_walls);
      m "trace.unattributed_s" "s" unattributed;
      m "trace.overhead_s" "s" (median replay_walls -. median prove_walls);
    ]

(* --- closed-loop prove workloads ---------------------------------------- *)

type closed = { log_n : int; budget : int option; limit_s : float }

module Closed (S : Spartan.S) = struct
  module R = Replay.Make (S)

  type state = {
    pool : Pool.t;
    engine : Engine.t;
    inst : R1cs.instance;
    asn : R1cs.assignment;
    io : Gf.t array;
    ref_bytes : bytes;
    ref_stats : S.prover_stats;
  }

  let params = S.default_params

  let check_verify engine inst io proof =
    match S.verify ~engine params inst ~io proof with
    | Ok () -> true
    | Error e ->
      prerr_endline ("perfbench: proof rejected: " ^ Verify_error.to_string e);
      false

  let setup cfg seed () =
    let pool = fresh_pool () in
    let engine = Engine.create ~pool ?stream_budget_bytes:cfg.budget () in
    let inst, asn =
      Synthetic.circuit ~n_constraints:(1 lsl cfg.log_n) ~public_seed:true
        ~seed:(Int64.of_int seed) ()
    in
    let io = R1cs.public_io inst asn in
    let proof, ref_stats = S.prove ~engine params inst asn in
    if not (check_verify engine inst io proof) then fail "warm-up proof does not verify";
    { pool; engine; inst; asn; io; ref_bytes = S.proof_to_bytes proof; ref_stats }

  let same a b = Bytes.equal a.ref_bytes b.ref_bytes && a.ref_stats = b.ref_stats
  let teardown st = Pool.teardown st.pool

  let finish st =
    teardown st;
    Gc.full_major ();
    if Spill.live_files () <> 0 then fail "%d spill files left open" (Spill.live_files ())

  let run cfg ~seed ~seconds =
    let st, setup_s = setup3 ~teardown ~same (setup cfg seed) in
    reset_peak_rss ();
    let proves = ref [] and verifies = ref [] and jobs = ref [] in
    let attempted = ref 0 and failed = ref 0 in
    let deadline = now () +. seconds in
    repeat_until deadline (fun _ ->
        incr attempted;
        let ok =
          try
            let t0 = cpu () in
            let proof, stats = S.prove ~engine:st.engine params st.inst st.asn in
            let t1 = cpu () in
            let bytes = S.proof_to_bytes proof in
            let decoded = S.proof_of_bytes bytes in
            let t2 = cpu () in
            let verified =
              match decoded with
              | Ok p -> check_verify st.engine st.inst st.io p
              | Error _ -> false
            in
            let t3 = cpu () in
            proves := (t1 -. t0) :: !proves;
            verifies := (t3 -. t2) :: !verifies;
            jobs := (t3 -. t0) :: !jobs;
            verified && Bytes.equal bytes st.ref_bytes && stats = st.ref_stats
          with e ->
            prerr_endline ("perfbench: prove raised " ^ Printexc.to_string e);
            false
        in
        if not ok then incr failed);
    let peak = peak_rss_mb () in
    finish st;
    let n_ok = !attempted - !failed in
    Printf.printf "samples: proves=%d verifies=%d jobs=%d\n" (List.length !proves)
      (List.length !verifies) (List.length !jobs);
    print_result ~attempted:!attempted ~failed:!failed
      [
        m "setup_s" "s" setup_s;
        m "prove_cpu_s" "s" (median !proves);
        m "verify_cpu_s" "s" (median !verifies);
        m "proof_bytes" "B" (float_of_int (Bytes.length st.ref_bytes));
        m "peak_rss_mb" "MiB" peak;
        m "ok_ratio" "ratio" (float_of_int n_ok /. float_of_int !attempted);
        m "job_p50_cpu_s" "s" (median !jobs);
        m "job_p90_cpu_s" "s" (tail !jobs);
        m "job_ontime_ratio" "ratio"
          (float_of_int (List.length (List.filter (fun j -> j <= cfg.limit_s) !jobs))
          /. float_of_int !attempted);
      ]

  (* Untraced proves (wall time, GC and spill traffic per prove)
     alternate with traced replays until the deadline, so both see the
     same host conditions. Each replay's proof bytes must equal the
     reference, and its op counts and spill traffic the prover's. *)
  let trace_layers ~engine inst asn ~ref_bytes ~(ref_stats : S.prover_stats) ~deadline
      ~serve =
    let prove_walls = ref [] and minor = ref [] and majors = ref [] in
    let spans = ref [] and walls = ref [] and ser = ref [] and de = ref [] in
    let last = ref None in
    repeat_until ~min:2 deadline (fun _ ->
        let g0 = Gc.quick_stat () and s0 = Spill.spilled_bytes_total () in
        let t0 = now () in
        let proof, _ = S.prove ~engine params inst asn in
        prove_walls := (now () -. t0) :: !prove_walls;
        let g1 = Gc.quick_stat () in
        minor := ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6) :: !minor;
        majors := float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) :: !majors;
        let prover_spilled = Spill.spilled_bytes_total () - s0 in
        if not (Bytes.equal (S.proof_to_bytes proof) ref_bytes) then
          fail "prover output changed between runs";
        let sp = Replay.create_spans () in
        let s0 = Spill.spilled_bytes_total () in
        let t0 = now () in
        let r = R.prove sp ~engine params inst asn in
        walls := (now () -. t0) :: !walls;
        let spill_bytes = Spill.spilled_bytes_total () - s0 in
        let t1 = now () in
        let bytes = S.proof_to_bytes r.R.proof in
        let t2 = now () in
        ignore (S.proof_of_bytes bytes);
        de := (now () -. t2) :: !de;
        ser := (t2 -. t1) :: !ser;
        spans := sp :: !spans;
        if not (Bytes.equal bytes ref_bytes) then
          fail "traced replay proof bytes differ from %s.prove's" S.P.name;
        if
          r.R.sumcheck_mults <> ref_stats.S.sumcheck_mults
          || r.R.spmv_mults <> ref_stats.S.spmv_mults
          || r.R.transcript_hashes <> ref_stats.S.transcript_hashes
        then fail "traced replay op counts differ from the prover's stats";
        if spill_bytes <> prover_spilled then
          fail "traced replay spilled %d bytes, the prover %d" spill_bytes prover_spilled;
        last := Some (r, sp, spill_bytes));
    let r, sp, spill_bytes = Option.get !last in
    (* The workloads' pools are serial, so dispatch is timed on a pool of
       nproc domains: empty parallel regions, submit to join, in batches
       of 100 so the clock's resolution does not matter. *)
    let dispatch =
      let pool = Pool.create ~domains:nproc () in
      let us =
        List.init 20 (fun _ ->
            let t0 = now () in
            for _ = 1 to 100 do
              Pool.run ~pool ~grain:1 ~n:(2 * nproc) (fun _ _ -> ())
            done;
            (now () -. t0) *. 1e4)
      in
      Pool.teardown pool;
      us
    in
    Printf.printf "samples: proves=%d replays=%d\n" (List.length !prove_walls)
      (List.length !walls);
    layer_metrics ~spans:!spans ~replay_walls:!walls ~prove_walls:!prove_walls ~serve
      ~counts:
        [
          mi "sumcheck.mults" r.R.sumcheck_mults;
          mi "sparse.spmv_mults" r.R.spmv_mults;
          mi "transcript.hashes" r.R.transcript_hashes;
          m "pcs.opening_bytes" "B" (float_of_int r.R.opening_bytes);
          m "spill.bytes" "B" (float_of_int spill_bytes);
          mi "spill.live_files" sp.Replay.live_files_max;
          m "gc.minor_mwords" "Mwords" (median !minor);
          m "gc.major_collections" "count" (median !majors);
          mi "pool.domains" pool_domains;
          m "pool.dispatch_us" "us" (median dispatch);
          m "spartan.serialize_s" "s" (median !ser);
          m "spartan.deserialize_s" "s" (median !de);
        ]

  let no_serve =
    [
      m "serve.submit_s" "s" 0.0;
      m "serve.solo_s" "s" 0.0;
      mi "serve.rejected" 0;
      mi "serve.retries" 0;
      mi "serve.demoted" 0;
      m "harness.gen_late_s" "s" 0.0;
      m "serve.latency_p50_s" "s" 0.0;
      m "serve.latency_p90_s" "s" 0.0;
    ]

  let trace cfg ~seed ~seconds =
    let st = setup cfg seed () in
    let metrics =
      trace_layers ~engine:st.engine st.inst st.asn ~ref_bytes:st.ref_bytes
        ~ref_stats:st.ref_stats ~deadline:(now () +. seconds) ~serve:no_serve
    in
    finish st;
    print_result ~attempted:1 ~failed:0 metrics
end

module Closed_orion = Closed (Spartan)
module Closed_fri = Closed (Spartan_fri)

(* --- open-loop proving service ------------------------------------------- *)

(* Jobs are synthetic proves of 2^11..2^14 constraints (one scale per
   size class, drawn from the seed) plus verify jobs on proofs prepared
   during set-up, arriving as a Poisson process at a fixed rate into a
   service with one runner. [serve_deck] is one round of the mix as
   (class index, verify) pairs: 30% verifies, mostly small jobs, with
   weights that put each median and the tail inside one size class
   rather than on the edge between two.

   A job's time is its service time on the runner's CPU clock. The runner
   serves jobs one at a time in arrival order and does nothing else, so
   that is the runner's CPU time from the start of the job's attempt to
   the start of the next attempt (or to the end of the run). Latency from
   the scheduled send time, in wall time, is a per-layer metric only: with
   tens of jobs a run, whether a job queues behind another turns on tens
   of milliseconds, and its median moved by a fifth between runs of the
   same code. One runner leaves the generator, which builds each job's
   circuit as it submits it, a core of its own on a 2-core host. *)
let serve_classes = [| 11; 12; 13; 14 |]
let serve_rate = 4.5
let serve_runners = 1

let serve_deck =
  let jobs kind counts =
    List.concat (List.mapi (fun cls k -> List.init k (fun _ -> (cls, kind))) counts)
  in
  Array.of_list (jobs false [ 3; 6; 3; 2 ] @ jobs true [ 1; 4; 1; 0 ])

let serve_limit_s = 2.5

type serve_state = {
  pool : Pool.t;
  engine : Engine.t;
  srv : Serve.t;
  scales : int array;
  refs : bytes array;  (** reference proof bytes per size class *)
  attempts : (int * float) list ref;
      (** (job id, runner CPU clock) at the start of each attempt, latest first *)
  attempts_lock : Mutex.t;
}

let serve_job ~scale kind =
  { Serve.tenant = "bench"; workload = "synthetic"; scale; kind; deadline_s = None }

let await_ok srv id =
  match Serve.await srv id with
  | Serve.Proof { bytes; _ } ->
    Serve.forget srv id;
    Some bytes
  | Serve.Verified _ ->
    Serve.forget srv id;
    None
  | Serve.Failed { error; _ } -> fail "warm-up job failed: %s" (Job_error.to_string error)

let serve_setup seed () =
  let pool = fresh_pool () in
  let engine = Engine.create ~pool () in
  let rng = Random.State.make [| seed; 0x5e7e |] in
  (* Below 2^k: at exactly 2^k constraints the circuit needs one more wire
     than 2^k and its matrices double. *)
  let scales = Array.map (fun k -> (1 lsl k) - 1 - Random.State.int rng 64) serve_classes in
  let refs =
    Array.map
      (fun scale ->
        match Serve.generate_workload ~workload:"synthetic" ~scale with
        | Error e -> fail "generate: %s" (Job_error.to_string e)
        | Ok (inst, asn) -> (
          let params = Spartan.default_params in
          let proof, _ = Spartan.prove ~engine params inst asn in
          match Spartan.verify ~engine params inst ~io:(R1cs.public_io inst asn) proof with
          | Ok () -> Spartan.proof_to_bytes proof
          | Error e -> fail "reference proof rejected: %s" (Verify_error.to_string e)))
      scales
  in
  let config =
    {
      Serve.default_config with
      Serve.capacity = 64;
      runners = serve_runners;
      params = Spartan.default_params;
    }
  in
  let attempts = ref [] and attempts_lock = Mutex.create () in
  (* The service calls this hook on its runner just before each attempt;
     it marks the runner for [marked_cpu] and records the runner's clock. *)
  let fault_hook ~stage:_ ~job_id ~attempt:_ =
    mark_thread ();
    let c = marked_cpu () in
    Mutex.protect attempts_lock (fun () -> attempts := (job_id, c) :: !attempts)
  in
  let srv = Serve.create ~engine ~fault_hook ~config () in
  let submit kind =
    match Serve.submit srv (serve_job ~scale:scales.(0) kind) with
    | Ok id -> id
    | Error e -> fail "warm-up submit: %s" (Job_error.to_string e)
  in
  let p = submit Serve.Prove and v = submit (Serve.Verify refs.(0)) in
  (match await_ok srv p with
  | Some b when Bytes.equal b refs.(0) -> ()
  | _ -> fail "warm-up service proof differs from the offline prover's");
  ignore (await_ok srv v);
  { pool; engine; srv; scales; refs; attempts; attempts_lock }

let serve_teardown st =
  ignore (Serve.shutdown st.srv);
  Pool.teardown st.pool

type job = {
  sched : float;  (** scheduled send time, absolute *)
  cls : int;
  verify : bool;
  mutable late : float;
  mutable submit_s : float;
  mutable id : int option;  (** [None]: refused or failed *)
  mutable latency : float;  (** wall seconds from [sched] to the outcome *)
  mutable service : float;  (** runner CPU seconds of the job's attempt *)
}

(* Open loop: one generator submits on a Poisson schedule regardless of
   completions, then every outcome is collected and checked. The schedule
   holds exactly [rate * seconds] arrivals (a Poisson process conditioned
   on its count), dealt from [serve_deck] and shuffled. It is one fixed
   sample: the seed draws the circuits (see [serve_setup]), not the
   traffic, as seed-drawn arrivals moved the latency medians by up to 60%
   between seeds, from where the big jobs happened to bunch up. *)
let open_loop st ~seconds =
  let rng = Random.State.make [| 0x10ad |] in
  (* At least one full round of the mix, so every median is defined. *)
  let n = max (Array.length serve_deck) (int_of_float (Float.ceil (serve_rate *. seconds))) in
  let times = sorted (List.init n (fun _ -> Random.State.float rng seconds)) in
  let mix = Array.init n (fun i -> serve_deck.(i mod Array.length serve_deck)) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = mix.(i) in
    mix.(i) <- mix.(j);
    mix.(j) <- t
  done;
  Mutex.protect st.attempts_lock (fun () -> st.attempts := []);
  let start = now () +. 0.05 in
  let jobs =
    List.init n (fun i ->
        let cls, verify = mix.(i) in
        { sched = start +. times.(i); cls; verify; late = 0.; submit_s = 0.; id = None;
          latency = infinity; service = 0. })
  in
  List.iter
    (fun j ->
      let wait = j.sched -. now () in
      if wait > 0.0 then Unix.sleepf wait;
      let t0 = now () in
      j.late <- t0 -. j.sched;
      let kind = if j.verify then Serve.Verify st.refs.(j.cls) else Serve.Prove in
      (match Serve.submit st.srv (serve_job ~scale:st.scales.(j.cls) kind) with
      | Ok id -> j.id <- Some id
      | Error _ -> ());
      j.submit_s <- now () -. t0)
    jobs;
  List.iter
    (fun j ->
      Option.iter
        (fun id ->
          let finished elapsed = j.latency <- j.late +. j.submit_s +. elapsed in
          (match Serve.await st.srv id with
          | Serve.Proof { bytes; elapsed_s; _ }
            when (not j.verify) && Bytes.equal bytes st.refs.(j.cls) ->
            finished elapsed_s
          | Serve.Verified { elapsed_s; _ } when j.verify -> finished elapsed_s
          | _ -> j.id <- None);
          Serve.forget st.srv id)
        j.id)
    jobs;
  (* Every job is done and the runner idle: its clock now closes the last
     attempt, and each earlier attempt ends where the next one starts. *)
  let ends = Hashtbl.create n in
  ignore
    (List.fold_left
       (fun stop (id, start) ->
         Hashtbl.replace ends id (start, stop);
         start)
       (marked_cpu ())
       (Mutex.protect st.attempts_lock (fun () -> !(st.attempts))));
  List.iter
    (fun j ->
      match Option.bind j.id (Hashtbl.find_opt ends) with
      | Some (start, stop) ->
        j.service <- stop -. start
      | None -> j.id <- None)
    jobs;
  let failed = List.length (List.filter (fun j -> j.id = None) jobs) in
  (jobs, failed)

let serve_run ~seed ~seconds =
  let st, setup_s =
    setup3 ~teardown:serve_teardown ~same:(fun a b -> a.refs = b.refs) (serve_setup seed)
  in
  reset_peak_rss ();
  let jobs, failed = open_loop st ~seconds in
  let peak = peak_rss_mb () in
  serve_teardown st;
  Gc.full_major ();
  if Spill.live_files () <> 0 then fail "%d spill files left open" (Spill.live_files ());
  let attempted = List.length jobs in
  let served verify =
    List.filter_map (fun j -> if j.verify = verify && j.id <> None then Some j.service else None) jobs
  in
  (* A failed or refused job counts as one that never finished. *)
  let service = List.map (fun j -> if j.id = None then infinity else j.service) jobs in
  let lat = List.map (fun j -> j.latency) jobs in
  Printf.printf
    "samples: jobs=%d proves=%d verifies=%d runner_busy=%.3f latency_p50_s=%.4f latency_p90_s=%.4f\n"
    attempted
    (List.length (served false))
    (List.length (served true))
    (List.fold_left (fun a j -> a +. j.service) 0.0 jobs /. seconds)
    (median lat) (tail lat);
  print_result ~attempted ~failed
    [
      m "setup_s" "s" setup_s;
      m "prove_cpu_s" "s" (median (served false));
      m "verify_cpu_s" "s" (median (served true));
      m "proof_bytes" "B" (float_of_int (Bytes.length st.refs.(Array.length st.refs - 1)));
      m "peak_rss_mb" "MiB" peak;
      m "ok_ratio" "ratio" (float_of_int (attempted - failed) /. float_of_int attempted);
      m "job_p50_cpu_s" "s" (median service);
      m "job_p90_cpu_s" "s" (tail service);
      m "job_ontime_ratio" "ratio"
        (float_of_int (List.length (List.filter (fun c -> c <= serve_limit_s) service))
        /. float_of_int attempted);
    ]

(* Traced serve run: the same open loop for the service counters and
   generator lateness, then the largest job class alone on the idle
   service, then a traced replay of that job's prove. *)
let serve_trace ~seed ~seconds =
  let st = serve_setup seed () in
  let t_end = now () +. seconds in
  let jobs, _ = open_loop st ~seconds:(seconds /. 2.0) in
  let big = Array.length serve_classes - 1 in
  let solo =
    List.init 3 (fun _ ->
        let t0 = now () in
        match Serve.submit st.srv (serve_job ~scale:st.scales.(big) Serve.Prove) with
        | Error e -> fail "solo submit: %s" (Job_error.to_string e)
        | Ok id -> (
          match await_ok st.srv id with
          | Some b when Bytes.equal b st.refs.(big) -> now () -. t0
          | _ -> fail "solo service proof differs from the offline prover's"))
  in
  let stats = Serve.shutdown st.srv in
  let inst, asn =
    match Serve.generate_workload ~workload:"synthetic" ~scale:st.scales.(big) with
    | Ok c -> c
    | Error e -> fail "generate: %s" (Job_error.to_string e)
  in
  let _, ref_stats = Spartan.prove ~engine:st.engine Spartan.default_params inst asn in
  let serve =
    [
      m "serve.submit_s" "s" (median (List.map (fun j -> j.submit_s) jobs));
      m "serve.solo_s" "s" (median solo);
      mi "serve.rejected" stats.Serve.rejected;
      mi "serve.retries" stats.Serve.retries;
      mi "serve.demoted" stats.Serve.demoted;
      m "harness.gen_late_s" "s" (List.fold_left (fun a j -> Float.max a j.late) 0.0 jobs);
      m "serve.latency_p50_s" "s" (median (List.map (fun j -> j.latency) jobs));
      m "serve.latency_p90_s" "s" (tail (List.map (fun j -> j.latency) jobs));
    ]
  in
  let metrics =
    Closed_orion.trace_layers ~engine:st.engine inst asn ~ref_bytes:st.refs.(big)
      ~ref_stats ~deadline:t_end ~serve
  in
  Pool.teardown st.pool;
  Gc.full_major ();
  if Spill.live_files () <> 0 then fail "%d spill files left open" (Spill.live_files ());
  print_result ~attempted:1 ~failed:0 metrics

(* --- command line -------------------------------------------------------- *)

(* BENCHMARK.json lists every workload but orion-inmem: four workloads
   left too little of the driver's time limit for runs long enough to be
   steady. orion-inmem stays runnable by name, as the in-memory
   counterpart of orion-budget. *)
let workloads =
  let orion_inmem = { log_n = 16; budget = None; limit_s = 10.0 } in
  let orion_budget = { orion_inmem with budget = Some (4 lsl 20); limit_s = 12.0 } in
  let fri_inmem = { log_n = 13; budget = None; limit_s = 8.0 } in
  [
    ("orion-inmem", (Closed_orion.run orion_inmem, Closed_orion.trace orion_inmem));
    ("fri-inmem", (Closed_fri.run fri_inmem, Closed_fri.trace fri_inmem));
    ("orion-budget", (Closed_orion.run orion_budget, Closed_orion.trace orion_budget));
    ("serve-mixed", (serve_run, serve_trace));
  ]

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 0.0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed part");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run, traced =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      fail "unknown workload %S (known: %s)" !workload
        (String.concat ", " (List.map fst workloads))
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then
    fail "need --seconds > 0 and --trace 0|1";
  Engine.tune_gc (Engine.default ());
  host_facts ~domains:pool_domains
    ~runners:(if !workload = "serve-mixed" then serve_runners else 0);
  if !trace = 1 then traced ~seed:!seed ~seconds:!seconds else run ~seed:!seed ~seconds:!seconds
