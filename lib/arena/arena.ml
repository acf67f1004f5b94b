exception Use_after_free of string
exception Double_free of string
exception Arena_full of string
exception Out_of_memory of string

(* A live-record budget shared by every arena of one heap: the simulated
   analogue of running the process under a bounded heap (ulimit -v).  A
   negative limit means unlimited; the counter still tracks so the limit can
   be installed mid-run.  [refused] counts the allocations it turned down. *)
type budget = { mutable limit : int; b_live : int Atomic.t; refused : int Atomic.t }

let budget_unlimited () =
  { limit = -1; b_live = Atomic.make 0; refused = Atomic.make 0 }

let state_unallocated = 0
let state_allocated = 1

type t = {
  heap_id : int;
  name : string;
  mut_fields : int;
  const_fields : int;
  capacity : int;
  data_mut : int Atomic.t array;
      (* capacity * mut_fields; [unclaimed] until the slot's first claim *)
  data_const : int array;  (* capacity * const_fields *)
  state : int array;  (* per slot *)
  gen : int array;  (* per slot, monotonically increasing *)
  free_next : int array;  (* per slot: Treiber-stack link *)
  free_head : int Atomic.t;  (* top slot of the free list, -1 = empty *)
  bump : int Atomic.t;  (* next never-used slot *)
  base_line : int;
  words_per_record : int;
  mutable checking : bool;
  budget : budget;
  scope : int;  (* heap scope its events are emitted under *)
  live : int Atomic.t;
  peak : int Atomic.t;
  allocs : int Atomic.t;
  frees : int Atomic.t;
}

(* The one cell every never-claimed slot's fields share.  Cells are
   installed by [claim_fresh] before the slot's pointer exists, and on
   domains that pointer reaches another domain only through an atomic
   (a publishing write or CAS, or the pool's and free list's atomics), which
   orders the installation before any reader indexes the cells.  So no valid
   pointer reads this cell; it must never be written either ([poke] checks,
   the instrumented writers validate first). *)
let unclaimed = Atomic.make 0

let create ?scope ?budget ~heap_id ~name ~mut_fields ~const_fields ~capacity
    () =
  assert (capacity > 0 && mut_fields >= 0 && const_fields >= 0);
  let scope =
    match scope with Some s -> s | None -> Runtime.Ctx.new_scope ()
  in
  let budget = match budget with Some b -> b | None -> budget_unlimited () in
  let words_per_record = mut_fields + const_fields in
  {
    heap_id;
    name;
    mut_fields;
    const_fields;
    capacity;
    data_mut = Array.make (capacity * mut_fields) unclaimed;
    data_const = Array.make (max 1 (capacity * const_fields)) 0;
    state = Array.make capacity state_unallocated;
    gen = Array.make capacity 0;
    free_next = Array.make capacity (-1);
    free_head = Atomic.make (-1);
    bump = Atomic.make 0;
    base_line = Runtime.Addr.reserve_words (capacity * max 1 words_per_record);
    words_per_record;
    checking = true;
    budget;
    scope;
    live = Atomic.make 0;
    peak = Atomic.make 0;
    allocs = Atomic.make 0;
    frees = Atomic.make 0;
  }

let name t = t.name
let heap_id t = t.heap_id
let emit t ctx ev = Runtime.Ctx.emit ctx ~scope:t.scope ev

(* Per-access events are built only under an event subscriber. *)
let emit_access t ctx p kind =
  if Runtime.Ctx.observed ctx then emit t ctx (Smr_event.Access (p, kind))

let capacity t = t.capacity
let record_bytes t = 8 * (t.words_per_record + 1) (* +1: header word *)
let set_checking t b = t.checking <- b

let line_of t slot word =
  Runtime.Addr.line_of ~base_line:t.base_line ((slot * t.words_per_record) + word)

let describe t p =
  Printf.sprintf "%s: ptr %s (slot state=%d gen=%d)" t.name (Ptr.to_string p)
    t.state.(Ptr.slot p)
    t.gen.(Ptr.slot p)

let validate t p =
  let slot = Ptr.slot p in
  if
    slot < 0 || slot >= t.capacity
    || t.state.(slot) <> state_allocated
    || t.gen.(slot) land Ptr.gen_mask <> Ptr.gen p
  then raise (Use_after_free (describe t p))

let is_valid t p =
  let slot = Ptr.slot p in
  slot >= 0 && slot < t.capacity
  && t.state.(slot) = state_allocated
  && t.gen.(slot) land Ptr.gen_mask = Ptr.gen p

let note_alloc t ctx =
  ctx.Runtime.Ctx.stats.Runtime.Ctx.allocs <-
    ctx.Runtime.Ctx.stats.Runtime.Ctx.allocs + 1;
  ignore (Atomic.fetch_and_add t.allocs 1);
  let l = 1 + Atomic.fetch_and_add t.live 1 in
  let rec bump_peak () =
    let p = Atomic.get t.peak in
    if l > p && not (Atomic.compare_and_set t.peak p l) then bump_peak ()
  in
  bump_peak ()

(* Optimistically reserve one budget unit; roll back and raise when over the
   limit so a failed allocation leaves the counter exact. *)
let charge_budget t =
  let b = t.budget in
  let l = 1 + Atomic.fetch_and_add b.b_live 1 in
  if b.limit >= 0 && l > b.limit then begin
    ignore (Atomic.fetch_and_add b.b_live (-1));
    Atomic.incr b.refused;
    raise
      (Out_of_memory
         (Printf.sprintf "%s: %d live records exceed heap budget of %d" t.name
            l b.limit))
  end

let uncharge_budget t = ignore (Atomic.fetch_and_add t.budget.b_live (-1))

let claim_fresh ctx t =
  Runtime.Ctx.work ctx 2;
  charge_budget t;
  let slot = Atomic.fetch_and_add t.bump 1 in
  if slot >= t.capacity then begin
    uncharge_budget t;
    raise (Arena_full t.name)
  end;
  let base = slot * t.mut_fields in
  for f = 0 to t.mut_fields - 1 do
    t.data_mut.(base + f) <- Atomic.make 0
  done;
  t.state.(slot) <- state_allocated;
  note_alloc t ctx;
  let p = Ptr.make ~arena:t.heap_id ~slot ~gen:t.gen.(slot) in
  emit t ctx (Smr_event.Alloc p);
  p

let claim_recycled ctx t =
  Runtime.Ctx.work ctx 2;
  let rec pop () =
    let head = Atomic.get t.free_head in
    if head < 0 then None
    else
      let next = t.free_next.(head) in
      if Atomic.compare_and_set t.free_head head next then Some head
      else pop ()
  in
  match pop () with
  | None -> None
  | Some slot ->
      (match charge_budget t with
      | () -> ()
      | exception e ->
          (* Put the slot back before surfacing the failure. *)
          let rec push () =
            let head = Atomic.get t.free_head in
            t.free_next.(slot) <- head;
            if not (Atomic.compare_and_set t.free_head head slot) then push ()
          in
          push ();
          raise e);
      t.state.(slot) <- state_allocated;
      note_alloc t ctx;
      let p = Ptr.make ~arena:t.heap_id ~slot ~gen:t.gen.(slot) in
      emit t ctx (Smr_event.Alloc p);
      Some p

let release ctx t p ~recycle =
  Runtime.Ctx.work ctx 2;
  (* Emitted before validation so a shadow checker can classify the free
     (double free, premature free) even when the arena itself raises. *)
  emit t ctx (Smr_event.Free p);
  let slot = Ptr.slot p in
  if
    slot < 0 || slot >= t.capacity
    || t.state.(slot) <> state_allocated
    || t.gen.(slot) land Ptr.gen_mask <> Ptr.gen p
  then raise (Double_free (describe t p));
  t.gen.(slot) <- t.gen.(slot) + 1;
  t.state.(slot) <- state_unallocated;
  ctx.Runtime.Ctx.stats.Runtime.Ctx.frees <-
    ctx.Runtime.Ctx.stats.Runtime.Ctx.frees + 1;
  ignore (Atomic.fetch_and_add t.frees 1);
  ignore (Atomic.fetch_and_add t.live (-1));
  uncharge_budget t;
  if recycle then begin
    let rec push () =
      let head = Atomic.get t.free_head in
      t.free_next.(slot) <- head;
      if not (Atomic.compare_and_set t.free_head head slot) then push ()
    in
    push ()
  end

let check t p = if t.checking then validate t p

let mut_index t p f =
  assert (f >= 0 && f < t.mut_fields);
  (Ptr.slot p * t.mut_fields) + f

let const_index t p f =
  assert (f >= 0 && f < t.const_fields);
  (Ptr.slot p * t.const_fields) + f

let read ctx t p f =
  Runtime.Ctx.access ctx ~line:(line_of t (Ptr.slot p) f) Runtime.Ctx.Read;
  emit_access t ctx p Smr_event.Read;
  check t p;
  Atomic.get t.data_mut.(mut_index t p f)

let read_opt ctx t p f =
  Runtime.Ctx.access ctx ~line:(line_of t (Ptr.slot p) f) Runtime.Ctx.Read;
  if is_valid t p then Some (Atomic.get t.data_mut.(mut_index t p f)) else None

let write ctx t p f v =
  Runtime.Ctx.access ctx ~line:(line_of t (Ptr.slot p) f) Runtime.Ctx.Write;
  emit_access t ctx p Smr_event.Write;
  check t p;
  Atomic.set t.data_mut.(mut_index t p f) v

let cas ctx t p f ~expect v =
  Runtime.Ctx.access ctx ~line:(line_of t (Ptr.slot p) f) Runtime.Ctx.Cas;
  emit_access t ctx p Smr_event.Cas;
  check t p;
  Atomic.compare_and_set t.data_mut.(mut_index t p f) expect v

let get_const ctx t p f =
  Runtime.Ctx.access ctx
    ~line:(line_of t (Ptr.slot p) (t.mut_fields + f))
    Runtime.Ctx.Read;
  emit_access t ctx p Smr_event.Read;
  check t p;
  t.data_const.(const_index t p f)

let set_const ctx t p f v =
  Runtime.Ctx.access ctx
    ~line:(line_of t (Ptr.slot p) (t.mut_fields + f))
    Runtime.Ctx.Write;
  emit_access t ctx p Smr_event.Write;
  check t p;
  t.data_const.(const_index t p f) <- v

let peek t p f = Atomic.get t.data_mut.(mut_index t p f)
let poke t p f v =
  let cell = t.data_mut.(mut_index t p f) in
  if cell == unclaimed then
    invalid_arg
      (Printf.sprintf "Arena.poke: %s: slot %d never claimed" t.name
         (Ptr.slot p));
  Atomic.set cell v

let peek_const t p f = t.data_const.(const_index t p f)

let budget t = t.budget
let live_records t = Atomic.get t.live
let peak_live t = Atomic.get t.peak
let fresh_claims t = Atomic.get t.bump
let total_allocs t = Atomic.get t.allocs
let total_frees t = Atomic.get t.frees
let bytes_claimed t = fresh_claims t * record_bytes t
let bytes_peak t = peak_live t * record_bytes t
