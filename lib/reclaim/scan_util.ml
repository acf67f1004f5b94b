(** The partition step shared by DEBRA+'s [rotateAndReclaim] and
    StackTrack's ScanAndFree (paper §5 "Complexity"): records pointed to by
    hazard pointers are swapped to the front of a limbo bag, then every full
    block behind the partition point — which by construction holds only
    unprotected records — is transferred to the pool in O(1) per block. *)

(* [partition_and_release ctx bag ~protected ~release_block] returns the
   number of records released. *)
let partition_and_release ctx bag ~protected ~release_block =
  Runtime.Ctx.work ctx (2 * Bag.Blockbag.size bag);
  let it1 = Bag.Blockbag.cursor bag in
  let it2 = Bag.Blockbag.cursor bag in
  while not (Bag.Blockbag.at_end it1) do
    if Bag.Hash_set.mem protected (Bag.Blockbag.get it1) then begin
      Bag.Blockbag.swap it1 it2;
      Bag.Blockbag.advance it2
    end;
    Bag.Blockbag.advance it1
  done;
  Bag.Blockbag.move_full_blocks_after bag it2 ~into:release_block

(* [flush_bag ctx bag ~keep ~release ~release_block] empties [bag] of every
   record not satisfying [keep] and returns how many it released.  Records
   satisfying [keep] stay in the bag (still limbo).  The building block of
   each reclaimer's quiescent-shutdown [flush] and allocation-failure
   emergency path: under full quiescence [keep] never holds and the bag
   drains to empty.

   Same partition discipline as [partition_and_release]: kept records are
   swapped to the front, every full block behind the partition point leaves
   whole through [release_block] — O(1) per block — and only the bounded
   remainder (the kept prefix plus at most one partial block) drains
   record-by-record through [release].  [keep] may be consulted twice for
   records in that remainder. *)
let flush_bag ctx bag ~keep ~release ~release_block =
  let it1 = Bag.Blockbag.cursor bag in
  let it2 = Bag.Blockbag.cursor bag in
  while not (Bag.Blockbag.at_end it1) do
    if keep (Bag.Blockbag.get it1) then begin
      Bag.Blockbag.swap it1 it2;
      Bag.Blockbag.advance it2
    end;
    Bag.Blockbag.advance it1
  done;
  let released =
    ref (Bag.Blockbag.move_full_blocks_after bag it2 ~into:release_block)
  in
  let kept = ref [] in
  let rec drain () =
    match Bag.Blockbag.pop bag with
    | None -> ()
    | Some p ->
        if keep p then kept := p :: !kept
        else begin
          incr released;
          release ctx p
        end;
        drain ()
  in
  drain ();
  List.iter (Bag.Blockbag.add bag) !kept;
  !released

(* [find_slot slots v] is the index of the first cell of [slots] holding
   [v], or -1: the slot search of the announcement schemes' [protect] (a
   free slot, [v] = 0) and [unprotect] ([v] = the record).  A top-level
   loop, so the hot path allocates no closure. *)
let rec find_slot_from (slots : int array) v i =
  if i >= Array.length slots then -1
  else if slots.(i) = v then i
  else find_slot_from slots v (i + 1)

let find_slot slots v = find_slot_from slots v 0

(* [collect_announcements ctx ~into ~nprocs ~row ~count] hashes every
   announced pointer of every process: [count pid] bounds the live prefix of
   [row pid]. *)
let collect_announcements ctx ~into ~nprocs ~row ~count =
  Bag.Hash_set.clear into;
  for other = 0 to nprocs - 1 do
    let r : Runtime.Shared_array.t = row other in
    let c = min (count ctx other) (Runtime.Shared_array.length r) in
    for i = 0 to c - 1 do
      let hp = Runtime.Shared_array.get ctx r i in
      if not (Memory.Ptr.is_null hp) then Bag.Hash_set.insert into hp
    done
  done
