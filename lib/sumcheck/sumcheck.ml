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
module Native = Nocap_native.Native

module Comb = struct
  type term = { coeff : Gf.t; cols : int array }
  type t = { factor : int option; terms : term array }

  (* The C kernel's fixed limits (SC_MAX_* in nocap_native_stubs.c). *)
  let max_tables = 256
  let max_degree = 8
  let max_terms = 256

  let minus_one = Gf.neg Gf.one
  let term ?(coeff = Gf.one) cols = { coeff; cols = Array.of_list cols }
  let unit_coeff c = Gf.equal c Gf.one || Gf.equal c minus_one

  let mults c =
    Array.fold_left
      (fun acc { coeff; cols } ->
        acc + max 0 (Array.length cols - 1) + if unit_coeff coeff then 0 else 1)
      (if Option.is_some c.factor then 1 else 0)
      c.terms

  let eval c v =
    let s = ref Gf.zero in
    Array.iter
      (fun { coeff; cols } ->
        let n = Array.length cols in
        let p = ref (if n = 0 then Gf.one else v.(cols.(0))) in
        for j = 1 to n - 1 do
          p := Gf.mul !p v.(cols.(j))
        done;
        if Gf.equal coeff Gf.one then s := Gf.add !s !p
        else if Gf.equal coeff minus_one then s := Gf.sub !s !p
        else s := Gf.add !s (Gf.mul coeff !p))
      c.terms;
    match c.factor with None -> !s | Some f -> Gf.mul v.(f) !s

  (* Validates [c] for [k] tables and [degree], then lays it out for the C
     kernel: [k; degree; factor (-1 = none); nterms; then per term:
     coeff; ncols; cols...]. *)
  let compile ~k ~degree c =
    let fail fmt = Printf.ksprintf invalid_arg ("Sumcheck.Comb: " ^^ fmt) in
    let nterms = Array.length c.terms in
    if k > max_tables then fail "%d tables (at most %d)" k max_tables;
    if degree < 1 || degree > max_degree then fail "degree %d (must be 1..%d)" degree max_degree;
    if nterms > max_terms then fail "%d terms (at most %d)" nterms max_terms;
    let col j = if j < 0 || j >= k then fail "column %d out of range for %d tables" j k in
    Option.iter col c.factor;
    let shared = if Option.is_some c.factor then 1 else 0 in
    Array.iter
      (fun { coeff; cols } ->
        Array.iter col cols;
        if Array.length cols + shared > degree then
          fail "term of degree %d above %d" (Array.length cols + shared) degree;
        if not (Gf.is_canonical coeff) then fail "non-canonical coefficient")
      c.terms;
    let ints a = Array.map Int64.of_int a in
    let header = ints [| k; degree; Option.value c.factor ~default:(-1); nterms |] in
    let term { coeff; cols } =
      Array.append [| coeff; Int64.of_int (Array.length cols) |] (ints cols)
    in
    Fv.of_array (Array.concat (header :: Array.to_list (Array.map term c.terms)))
end

(* The one sumcheck prover. Tables enter as {!Spill} vectors (RAM- or
   file-backed); rounds run in up to two phases over the same round
   evaluation ({!round_range}) and the same round close ({!close_round}):

   - streamed rounds (only under a budget, while the residual tables
     exceed half of it), which recompute each table generation from the
     originals instead of storing it ({!stream_rounds});
   - in-RAM rounds over unboxed [Fv] copies of the residual generation,
     folded in place, each round's fold fused into the next round's
     evaluation ({!run_rounds}).

   Without a budget every round is an in-RAM round. A {!Comb} description
   evaluates in the C kernel ([Native.sumcheck_round]) unless the native
   layer is [Off]; a closure, or [Off], takes the boxed loop
   ({!eval_into}). Goldilocks arithmetic is exact, so round polynomials,
   challenges and final values are the same for every budget, every pool
   size and every evaluator. *)

type evaluator = {
  degree : int;
  k : int;
  comb : Gf.t array -> Gf.t; (* the boxed per-point evaluator *)
  kernel : Fv.t option; (* the compiled Comb, if the caller gave one *)
  comb_mults : int;
}

type run = {
  ev : evaluator;
  transcript : Transcript.t;
  polys : Gf.t array array; (* round polynomials, one per round *)
  chals : Gf.t array; (* challenges, one per round *)
  mutable mults : int;
  mutable adds : int;
}

(* T(i) <- T(i) + r * (T(i + off) - T(i)). *)
let fold_at t r i off =
  let x = Fv.unsafe_get t i in
  Fv.unsafe_set t i (Gf.add x (Gf.mul r (Gf.sub (Fv.unsafe_get t (i + off)) x)))

(* Adds [sum_{b in [b_lo, b_hi)} comb (lo(b) + t * (hi(b) - lo(b)))] for
   t = 0..degree into [g], with lo(b) = T(b) and hi(b) = T(b + half):
   each table restricted to the top variable is a line, walked by
   repeated addition of the delta, avoiding multiplications. [vals] and
   [deltas] are k-element boxed arrays because [comb] consumes a
   [Gf.t array]. *)
let eval_into ev g ~tabs ~half b_lo b_hi =
  let k = ev.k in
  let vals = Array.make k Gf.zero in
  let deltas = Array.make k Gf.zero in
  for b = b_lo to b_hi - 1 do
    for j = 0 to k - 1 do
      let t = Array.unsafe_get tabs j in
      let l = Fv.unsafe_get t b and h = Fv.unsafe_get t (b + half) in
      vals.(j) <- l;
      deltas.(j) <- Gf.sub h l
    done;
    for x = 0 to ev.degree do
      if x > 0 then
        for j = 0 to k - 1 do
          vals.(j) <- Gf.add vals.(j) deltas.(j)
        done;
      Fv.unsafe_set g x (Gf.add (Fv.unsafe_get g x) (ev.comb vals))
    done
  done

(* One round's work over the pairs [b_lo, b_hi) of [tabs]: with
   [fold = Some r], first folds both positions of each pair with the
   previous round's challenge (the previous generation's half is
   2 * half), then adds the round polynomial's share into [g]. Writes
   touch only positions b and b + half, so disjoint b-ranges may run in
   parallel. *)
let round_range ev ~tabs ~half ~fold g b_lo b_hi =
  match ev.kernel with
  | Some desc when Native.on () ->
    let r, on = match fold with Some r -> (r, 1) | None -> (Gf.zero, 0) in
    Native.sumcheck_round tabs desc r on half b_lo b_hi g
  | _ ->
    Option.iter
      (fun r ->
        Array.iter
          (fun t ->
            for b = b_lo to b_hi - 1 do
              fold_at t r b (2 * half);
              fold_at t r (b + half) (2 * half)
            done)
          tabs)
      fold;
    eval_into ev g ~tabs ~half b_lo b_hi

let new_poly ev =
  let g = Fv.create (ev.degree + 1) in
  Fv.zero g;
  g

(* Closes round [j] with polynomial [g] over [half] pairs: accounts the
   evaluation and the fold the round implies (the protocol's arithmetic,
   not the streamed rounds' recomputation, so stats do not depend on the
   budget), absorbs [g] and draws the challenge. *)
let close_round st j ~half g =
  let ev = st.ev in
  let g = Fv.to_array g in
  st.adds <- st.adds + (half * (ev.degree + 1) * (ev.k + 1)) + (2 * ev.k * half);
  st.mults <- st.mults + (half * (ev.degree + 1) * ev.comb_mults) + (ev.k * half);
  st.polys.(j) <- g;
  Transcript.absorb_gf st.transcript "sumcheck/round" g;
  let r = Transcript.challenge_gf st.transcript "sumcheck/challenge" in
  st.chals.(j) <- r;
  r

(* In-RAM rounds [round0, num_vars) over [tabs], folded in place; each
   round's fold runs inside the next round's pass and the last one after
   the loop. The b-range splits into chunks evaluated in parallel, each
   producing a partial g; Gf addition is exact, so g is byte-identical
   for every domain count. *)
let run_rounds ?pool st ~tabs ~round0 =
  let ev = st.ev in
  (* One index evaluates the combiner at degree+1 points, at roughly 4 ns
     per (point, table-or-mult) in the native kernel (91 ns per fused
     sumcheck-#1 pair) and 20 ns in the boxed loop. *)
  let ns = if Option.is_some ev.kernel && Native.on () then 4 else 20 in
  let grain = Pool.grain_of_ns (max 1 ((ev.degree + 1) * (ev.comb_mults + ev.k) * ns)) in
  let len = ref (Fv.length tabs.(0)) and fold = ref None in
  for round = round0 to Array.length st.chals - 1 do
    Pool.Cancel.check ();
    let half = !len / 2 and fold_r = !fold in
    let g =
      Pool.fold_chunks ?pool ~chunk:1024 ~grain ~n:half ~init:(new_poly ev)
        ~body:(fun lo_b hi_b ->
          let g = new_poly ev in
          round_range ev ~tabs ~half ~fold:fold_r g lo_b hi_b;
          g)
        ~combine:(fun acc part ->
          Fv.add_into ~dst:acc acc part;
          acc)
        ()
    in
    fold := Some (close_round st round ~half g);
    len := half
  done;
  Option.iter (fun r -> Array.iter (fun t -> fold_at t r 0 1) tabs) !fold

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
  let k = st.ev.k in
  let n = Spill.length tables.(0) in
  (* Per table an accumulator pair (lo/hi) plus a read buffer, all
     block-sized — 3k + slack vectors of 8 bytes/elem. *)
  let block = min (max 256 (budget / (8 * ((3 * k) + 2)))) (max 1 (n / 2)) in
  let buf = Fv.create block in
  let acc = Array.init k (fun _ -> Fv.create (2 * block)) in
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
    let g = new_poly st.ev in
    let pos = ref 0 in
    while !pos < half do
      Pool.Cancel.check ();
      let len = min block (half - !pos) in
      (* Lay each table's block out as a length-2len table: lo values
         then hi values, so the pair is (b, b + len). *)
      let tabs =
        Array.mapi
          (fun t a ->
            recompute ~w ~stride tables.(t) a ~pos:!pos ~len;
            recompute ~w ~stride tables.(t) (Fv.sub_view a ~pos:len ~len)
              ~pos:(!pos + half) ~len;
            Fv.sub_view a ~pos:0 ~len:(2 * len))
          acc
      in
      round_range st.ev ~tabs ~half:len ~fold:None g 0 len;
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

let run_prover ?engine ?budget_bytes transcript ~tables ~claim ev =
  (match budget_bytes with
  | Some b when b <= 0 -> invalid_arg "Sumcheck.prove_streaming: budget must be positive"
  | _ -> ());
  if ev.k = 0 then invalid_arg "Sumcheck.prove: no tables";
  let n = Spill.length tables.(0) in
  let num_vars = log2_exact n in
  Array.iter
    (fun t ->
      if Spill.length t <> n then invalid_arg "Sumcheck.prove: table size mismatch")
    tables;
  Transcript.absorb_int transcript "sumcheck/num_vars" num_vars;
  Transcript.absorb_int transcript "sumcheck/degree" ev.degree;
  Transcript.absorb_gf transcript "sumcheck/claim" [| claim |];
  let st =
    { ev; transcript; polys = Array.make num_vars [||];
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

let comb_evaluator ~k ~degree comb =
  { degree; k; comb = Comb.eval comb; kernel = Some (Comb.compile ~k ~degree comb);
    comb_mults = Comb.mults comb }

let prove_comb ?engine ?budget_bytes transcript ~degree ~tables ~comb ~claim =
  run_prover ?engine ?budget_bytes transcript ~tables ~claim
    (comb_evaluator ~k:(Array.length tables) ~degree comb)

let prove_streaming ?engine ?(comb_mults = 0) ?budget_bytes transcript ~degree ~tables
    ~comb ~claim =
  run_prover ?engine ?budget_bytes transcript ~tables ~claim
    { degree; k = Array.length tables; comb; kernel = None; comb_mults }

let prove ?engine ?comb_mults transcript ~degree ~tables ~comb ~claim =
  prove_streaming ?engine ?comb_mults transcript ~degree
    ~tables:(Array.map Spill.of_array tables)
    ~comb ~claim

let round_step ?fold ~degree ~comb tabs ~half =
  let ev = comb_evaluator ~k:(Array.length tabs) ~degree comb in
  let need = if Option.is_some fold then 4 * half else 2 * half in
  if half < 0 || Array.exists (fun t -> Fv.length t < need) tabs then
    invalid_arg "Sumcheck.round_step: tables shorter than the round reads";
  let g = new_poly ev in
  round_range ev ~tabs ~half ~fold g 0 half;
  Fv.to_array g

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
