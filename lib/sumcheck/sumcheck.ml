module Gf = Zk_field.Gf
module Transcript = Zk_hash.Transcript
module Mle = Zk_poly.Mle
module Dense = Zk_poly.Dense
module Pool = Nocap_parallel.Pool
module Fv = Nocap_vec.Fv

type proof = { round_polys : Gf.t array array }

type stats = { rounds : int; mults : int; adds : int }

type prover_result = {
  proof : proof;
  challenges : Gf.t array;
  final_values : Gf.t array;
  stats : stats;
}

type verifier_result = { point : Gf.t array; value : Gf.t }

let log2_exact n =
  if n <= 0 || n land (n - 1) <> 0 then invalid_arg "Sumcheck: table size must be a power of two";
  let rec go k m = if m = 1 then k else go (k + 1) (m lsr 1) in
  go 0 n

(* Boxed reference prover: byte-identical proofs to {!prove_streaming},
   written independently of it and kept as the correctness oracle the
   equivalence tests and the memory bench compare against. *)
let prove_arrays ?engine ?(comb_mults = 0) transcript ~degree ~tables ~comb ~claim =
  let pool = Option.bind engine Zk_pcs.Engine.pool in
  let k = Array.length tables in
  if k = 0 then invalid_arg "Sumcheck.prove: no tables";
  let n = Array.length tables.(0) in
  let num_vars = log2_exact n in
  Array.iter
    (fun t -> if Array.length t <> n then invalid_arg "Sumcheck.prove: table size mismatch")
    tables;
  Transcript.absorb_int transcript "sumcheck/num_vars" num_vars;
  Transcript.absorb_int transcript "sumcheck/degree" degree;
  Transcript.absorb_gf transcript "sumcheck/claim" [| claim |];
  let tables = Array.map Array.copy tables in
  let len = ref n in
  let mults = ref 0 and adds = ref 0 in
  let round_polys = Array.make num_vars [||] in
  let challenges = Array.make num_vars Gf.zero in
  for round = 0 to num_vars - 1 do
    let half = !len / 2 in
    (* Round polynomial g(t) at t = 0..degree. For each b, each table
       restricted to the top variable is the line lo + t*(hi - lo); we walk t
       by repeated addition of the delta, avoiding multiplications.

       The b-range splits into chunks evaluated in parallel, each producing
       a partial g; partials are added back in chunk order (and Gf addition
       is exact), so g is byte-identical for every domain count. *)
    let eval_chunk lo_b hi_b =
      let g = Array.make (degree + 1) Gf.zero in
      let vals = Array.make k Gf.zero in
      let deltas = Array.make k Gf.zero in
      for b = lo_b to hi_b - 1 do
        for j = 0 to k - 1 do
          let lo = tables.(j).(b) and hi = tables.(j).(b + half) in
          vals.(j) <- lo;
          deltas.(j) <- Gf.sub hi lo
        done;
        for t = 0 to degree do
          if t > 0 then
            for j = 0 to k - 1 do
              vals.(j) <- Gf.add vals.(j) deltas.(j)
            done;
          g.(t) <- Gf.add g.(t) (comb vals)
        done
      done;
      g
    in
    let g =
      Pool.fold_chunks ?pool ~chunk:1024
        (* One index evaluates the combiner at degree+1 points; the fixed
           chunk:1024 pins the combine order for every grain. *)
        ~grain:(Pool.grain_of_ns (max 1 ((degree + 1) * (comb_mults + k) * 20)))
        ~n:half
        ~init:(Array.make (degree + 1) Gf.zero)
        ~body:eval_chunk
        ~combine:(fun acc part ->
          for t = 0 to degree do
            acc.(t) <- Gf.add acc.(t) part.(t)
          done;
          acc)
        ()
    in
    adds := !adds + (half * (degree + 1) * (k + 1));
    mults := !mults + (half * (degree + 1) * comb_mults);
    round_polys.(round) <- g;
    Transcript.absorb_gf transcript "sumcheck/round" g;
    let r = Transcript.challenge_gf transcript "sumcheck/challenge" in
    challenges.(round) <- r;
    (* Fold every table: T(b) <- T(b) + r * (T(b + half) - T(b)); writes to
       b < half are disjoint from the reads at b + half. *)
    for j = 0 to k - 1 do
      let t = tables.(j) in
      Pool.run ?pool ~grain:(Pool.grain_of_ns 15) ~n:half (fun lo hi ->
          for b = lo to hi - 1 do
            t.(b) <- Gf.add t.(b) (Gf.mul r (Gf.sub t.(b + half) t.(b)))
          done)
    done;
    mults := !mults + (k * half);
    adds := !adds + (2 * k * half);
    len := half
  done;
  let final_values = Array.map (fun t -> t.(0)) tables in
  {
    proof = { round_polys };
    challenges;
    final_values;
    stats = { rounds = num_vars; mults = !mults; adds = !adds };
  }

module Spill = Nocap_vec.Spill

(* The one sumcheck prover. Tables enter as {!Spill} vectors (RAM- or
   file-backed); rounds run in up to two phases over the same evaluation
   kernel ({!eval_into}) and the same round close ({!close_round}):

   - streamed rounds (only under a budget, while the residual tables
     exceed half of it), which recompute each table generation from the
     originals instead of storing it ({!stream_rounds});
   - in-RAM rounds over unboxed [Fv] copies of the residual generation,
     folded in place ({!run_rounds}).

   Without a budget every round is an in-RAM round. Goldilocks arithmetic
   is exact, so round polynomials, challenges and final values are the
   same for every budget and every pool size. *)

type run = {
  transcript : Transcript.t;
  degree : int;
  comb : Gf.t array -> Gf.t;
  comb_mults : int;
  k : int;
  polys : Gf.t array array; (* round polynomials, one per round *)
  chals : Gf.t array; (* challenges, one per round *)
  mutable mults : int;
  mutable adds : int;
}

(* Adds [sum_{b in [b_lo, b_hi)} comb (lo(b) + t * (hi(b) - lo(b)))] for
   t = 0..degree into [g]: each table restricted to the top variable is
   the line lo + t*(hi - lo), walked by repeated addition of the delta,
   avoiding multiplications. [vals]/[deltas] are k-element boxed arrays
   because [comb] consumes a [Gf.t array]. *)
let eval_into st g ~lo ~hi b_lo b_hi =
  let k = st.k in
  let vals = Array.make k Gf.zero in
  let deltas = Array.make k Gf.zero in
  for b = b_lo to b_hi - 1 do
    for j = 0 to k - 1 do
      let l = Fv.unsafe_get (Array.unsafe_get lo j) b
      and h = Fv.unsafe_get (Array.unsafe_get hi j) b in
      vals.(j) <- l;
      deltas.(j) <- Gf.sub h l
    done;
    for t = 0 to st.degree do
      if t > 0 then
        for j = 0 to k - 1 do
          vals.(j) <- Gf.add vals.(j) deltas.(j)
        done;
      g.(t) <- Gf.add g.(t) (st.comb vals)
    done
  done

(* Closes round [j] with polynomial [g] over [half] pairs: accounts the
   evaluation and the fold the round implies (the protocol's arithmetic,
   not the streamed rounds' recomputation, so stats do not depend on the
   budget), absorbs [g] and draws the challenge. *)
let close_round st j ~half g =
  st.adds <- st.adds + (half * (st.degree + 1) * (st.k + 1)) + (2 * st.k * half);
  st.mults <- st.mults + (half * (st.degree + 1) * st.comb_mults) + (st.k * half);
  st.polys.(j) <- g;
  Transcript.absorb_gf st.transcript "sumcheck/round" g;
  let r = Transcript.challenge_gf st.transcript "sumcheck/challenge" in
  st.chals.(j) <- r;
  r

(* In-RAM rounds [round0, num_vars) over [tabs], folded in place. The
   b-range splits into chunks evaluated in parallel, each producing a
   partial g; partials are added back in chunk order (and Gf addition is
   exact), so g is byte-identical for every domain count. *)
let run_rounds ?pool st ~tabs ~round0 =
  let degree = st.degree in
  let len = ref (Fv.length tabs.(0)) in
  for round = round0 to Array.length st.chals - 1 do
    Pool.Cancel.check ();
    let half = !len / 2 in
    let lo = Array.map (fun t -> Fv.sub_view t ~pos:0 ~len:half) tabs in
    let hi = Array.map (fun t -> Fv.sub_view t ~pos:half ~len:half) tabs in
    let g =
      Pool.fold_chunks ?pool ~chunk:1024
        (* One index evaluates the combiner at degree+1 points; the fixed
           chunk:1024 pins the combine order for every grain. *)
        ~grain:(Pool.grain_of_ns (max 1 ((degree + 1) * (st.comb_mults + st.k) * 20)))
        ~n:half
        ~init:(Array.make (degree + 1) Gf.zero)
        ~body:(fun lo_b hi_b ->
          let g = Array.make (degree + 1) Gf.zero in
          eval_into st g ~lo ~hi lo_b hi_b;
          g)
        ~combine:(fun acc part ->
          for t = 0 to degree do
            acc.(t) <- Gf.add acc.(t) part.(t)
          done;
          acc)
        ()
    in
    let r = close_round st round ~half g in
    (* Fold every table: T(b) <- T(b) + r * (T(b + half) - T(b)); writes to
       b < half are disjoint from the reads at b + half. *)
    Array.iter
      (fun t ->
        Pool.run ?pool ~grain:(Pool.grain_of_ns 15) ~n:half (fun lo hi ->
            for b = lo to hi - 1 do
              let x = Fv.unsafe_get t b in
              Fv.unsafe_set t b (Gf.add x (Gf.mul r (Gf.sub (Fv.unsafe_get t (b + half)) x)))
            done))
      tabs;
    len := half
  done

(* Residual tables fit the materialization half of the budget when
   k * len * 8 <= budget / 2. *)
let fits ~budget ~k len = k * len * 8 <= budget / 2 || len <= 1

(* Streamed rounds (recompute-halves). The in-RAM rounds fold each table
   in place, so after round j they hold the length-(n >> j) generation.
   The streamed rounds never store a folded generation: after j rounds
   with challenges r_0..r_{j-1}, the current table is a weighted sum of
   strided slices of the ORIGINAL table,

     T_j(b) = sum_{m < 2^j} w_j(m) * T_0(m * (n >> j) + b),

   where w_j = Mle.eq_table [r_0..r_{j-1}] — the same doubling recurrence
   the fold applies, factored out. Each streamed round therefore reads
   every original table once, in budget-sized blocks, and accumulates T_j
   values on the fly; nothing but O(block) scratch and the 2^j weight
   vector stays resident.

   Once the residual length fits half the budget (possibly before any
   round), the generation is materialized into RAM once, block by block;
   returns it with the round it starts at, so {!run_rounds} finishes
   with the standard chunking. *)
let stream_rounds st ~budget tables =
  let k = st.k in
  let n = Spill.length tables.(0) in
  (* Per table an accumulator pair (lo/hi) plus a read buffer, all
     block-sized — 3k + slack vectors of 8 bytes/elem. *)
  let block = min (max 256 (budget / (8 * ((3 * k) + 2)))) (max 1 (n / 2)) in
  let buf = Fv.create block in
  let acc_lo = Array.init k (fun _ -> Fv.create block) in
  let acc_hi = Array.init k (fun _ -> Fv.create block) in
  (* Accumulate T_round(pos .. pos+len) of table [tj] into [dst], given
     the eq-weights of the challenges so far. *)
  let recompute ~w ~stride tj dst ~pos ~len =
    let dstv = Fv.sub_view dst ~pos:0 ~len in
    Fv.zero dstv;
    let bufv = Fv.sub_view buf ~pos:0 ~len in
    for m = 0 to Array.length w - 1 do
      Spill.read tj ~pos:((m * stride) + pos) bufv;
      Fv.axpy_into ~dst:dstv w.(m) bufv
    done
  in
  let round = ref 0 in
  while not (fits ~budget ~k (n lsr !round)) do
    let j = !round in
    let stride = n lsr j in
    let half = stride / 2 in
    let w = Mle.eq_table (Array.sub st.chals 0 j) in
    let g = Array.make (st.degree + 1) Gf.zero in
    let pos = ref 0 in
    while !pos < half do
      Pool.Cancel.check ();
      let len = min block (half - !pos) in
      for t = 0 to k - 1 do
        recompute ~w ~stride tables.(t) acc_lo.(t) ~pos:!pos ~len;
        recompute ~w ~stride tables.(t) acc_hi.(t) ~pos:(!pos + half) ~len
      done;
      eval_into st g ~lo:acc_lo ~hi:acc_hi 0 len;
      pos := !pos + len
    done;
    ignore (close_round st j ~half g);
    incr round
  done;
  let round0 = !round in
  let stride = n lsr round0 in
  let w = Mle.eq_table (Array.sub st.chals 0 round0) in
  let materialize tj =
    let dst = Fv.create stride in
    let pos = ref 0 in
    while !pos < stride do
      Pool.Cancel.check ();
      let len = min block (stride - !pos) in
      let dstv = Fv.sub_view dst ~pos:!pos ~len in
      if round0 = 0 then Spill.read tj ~pos:!pos dstv
      else recompute ~w ~stride tj dstv ~pos:!pos ~len;
      pos := !pos + len
    done;
    dst
  in
  (Array.map materialize tables, round0)

let prove_streaming ?engine ?(comb_mults = 0) ?budget_bytes transcript ~degree ~tables
    ~comb ~claim =
  (match budget_bytes with
  | Some b when b <= 0 -> invalid_arg "Sumcheck.prove_streaming: budget must be positive"
  | _ -> ());
  let k = Array.length tables in
  if k = 0 then invalid_arg "Sumcheck.prove: no tables";
  let n = Spill.length tables.(0) in
  let num_vars = log2_exact n in
  Array.iter
    (fun t ->
      if Spill.length t <> n then invalid_arg "Sumcheck.prove: table size mismatch")
    tables;
  Transcript.absorb_int transcript "sumcheck/num_vars" num_vars;
  Transcript.absorb_int transcript "sumcheck/degree" degree;
  Transcript.absorb_gf transcript "sumcheck/claim" [| claim |];
  let st =
    { transcript; degree; comb; comb_mults; k; polys = Array.make num_vars [||];
      chals = Array.make num_vars Gf.zero; mults = 0; adds = 0 }
  in
  let tabs, round0 =
    match budget_bytes with
    | Some budget -> stream_rounds st ~budget tables
    | None -> (Array.map Spill.to_fv tables, 0)
  in
  run_rounds ?pool:(Option.bind engine Zk_pcs.Engine.pool) st ~tabs ~round0;
  {
    proof = { round_polys = st.polys };
    challenges = st.chals;
    final_values = Array.map (fun t -> Fv.get t 0) tabs;
    stats = { rounds = num_vars; mults = st.mults; adds = st.adds };
  }

let prove ?engine ?comb_mults transcript ~degree ~tables ~comb ~claim =
  prove_streaming ?engine ?comb_mults transcript ~degree
    ~tables:(Array.map (fun t -> Spill.of_fv (Fv.of_array t)) tables)
    ~comb ~claim

module E = Zk_pcs.Verify_error

let verify transcript ~degree ~num_vars ~claim proof =
  if degree < 1 || num_vars < 0 then
    E.errorf E.Params "invalid sumcheck shape (degree %d, %d vars)" degree num_vars
  else if Array.length proof.round_polys <> num_vars then
    E.error E.Shape "wrong number of rounds"
  else begin
    Transcript.absorb_int transcript "sumcheck/num_vars" num_vars;
    Transcript.absorb_int transcript "sumcheck/degree" degree;
    Transcript.absorb_gf transcript "sumcheck/claim" [| claim |];
    let expected = ref claim in
    let point = Array.make num_vars Gf.zero in
    let rec go round =
      if round = num_vars then Ok { point; value = !expected }
      else begin
        let g = proof.round_polys.(round) in
        if Array.length g <> degree + 1 then
          E.errorf E.Shape "round %d: wrong degree" round
        else if not (Gf.equal (Gf.add g.(0) g.(1)) !expected) then
          E.errorf E.Sumcheck_mismatch "round %d: g(0) + g(1) mismatch" round
        else begin
          Transcript.absorb_gf transcript "sumcheck/round" g;
          let r = Transcript.challenge_gf transcript "sumcheck/challenge" in
          point.(round) <- r;
          expected := Dense.interpolate_eval_small g r;
          go (round + 1)
        end
      end
    in
    go 0
  end
