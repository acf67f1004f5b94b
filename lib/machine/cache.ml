type stats = {
  mutable l1_hits : int;
  mutable llc_hits : int;
  mutable mem_accesses : int;
  mutable invalidations : int;
}

let bits_per_word = Sys.int_size

(* The coherence directory maps each line ever accessed to a slot [d]; the
   private caches holding the line are the set bits of
   [l1h.(d * l1w) .. l1h.(d * l1w + l1w - 1)] (bit [c mod bits_per_word] of
   word [c / bits_per_word] for context [c]), and likewise [llch]/[llcw]
   for the sockets' last-level caches.  Slots are handed out in order and
   never freed, so a line's slot is stable while its arrays grow. *)
type t = {
  cfg : Config.t;
  l1 : Lru.t array;  (* indexed by hardware context *)
  llc : Lru.t array;  (* indexed by socket *)
  st : stats;
  dir : Line_index.t;
  l1w : int;
  llcw : int;
  mutable lines : int array;  (* directory slot -> line *)
  mutable ndir : int;  (* directory slots in use *)
  mutable l1h : int array;
  mutable llch : int array;
}

let stats t = t.st
let words n = (n + bits_per_word - 1) / bits_per_word
let initial_dir_slots = 64

let set_bit bits off i =
  let w = off + (i / bits_per_word) in
  bits.(w) <- bits.(w) lor (1 lsl (i mod bits_per_word))

let clear_bit bits off i =
  let w = off + (i / bits_per_word) in
  bits.(w) <- bits.(w) land lnot (1 lsl (i mod bits_per_word))

let grow_dir t =
  let n = 2 * Array.length t.lines in
  let extend a width =
    let a' = Array.make (n * width) 0 in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  t.lines <- extend t.lines 1;
  t.l1h <- extend t.l1h t.l1w;
  t.llch <- extend t.llch t.llcw;
  Line_index.grow t.dir t.lines ~slots:n

(* The directory slot of [line], allocating one on first sight. *)
let dir_slot t line =
  let d = Line_index.find t.dir t.lines line in
  if d >= 0 then d
  else begin
    if t.ndir = Array.length t.lines then grow_dir t;
    let d = t.ndir in
    t.ndir <- d + 1;
    t.lines.(d) <- line;
    Line_index.add t.dir line d;
    d
  end

(* Evictions only ever hit lines the directory already holds. *)
let held t line =
  let d = Line_index.find t.dir t.lines line in
  assert (d >= 0);
  d

let l1_evicted t c line = clear_bit t.l1h (held t line * t.l1w) c
let llc_evicted t s line = clear_bit t.llch (held t line * t.llcw) s

let create cfg =
  let n = Config.contexts cfg in
  let placeholder = Lru.create ~cap:1 ~on_evict:ignore in
  let l1w = words n and llcw = words cfg.Config.sockets in
  let t =
    {
      cfg;
      l1 = Array.make n placeholder;
      llc = Array.make cfg.Config.sockets placeholder;
      st = { l1_hits = 0; llc_hits = 0; mem_accesses = 0; invalidations = 0 };
      dir = Line_index.create ~slots:initial_dir_slots;
      l1w;
      llcw;
      lines = Array.make initial_dir_slots 0;
      ndir = 0;
      l1h = Array.make (initial_dir_slots * l1w) 0;
      llch = Array.make (initial_dir_slots * llcw) 0;
    }
  in
  for c = 0 to n - 1 do
    t.l1.(c) <-
      Lru.create ~cap:cfg.Config.l1_lines ~on_evict:(l1_evicted t c)
  done;
  for s = 0 to cfg.Config.sockets - 1 do
    t.llc.(s) <-
      Lru.create ~cap:cfg.Config.llc_lines ~on_evict:(llc_evicted t s)
  done;
  t

(* Bring [line], which context [c]'s private cache does not hold and whose
   directory slot is [d], into [c]'s caches and return the load cost. *)
let fill t c line d =
  let s = Config.socket_of_context t.cfg c in
  let cost =
    if Lru.refresh t.llc.(s) line then begin
      t.st.llc_hits <- t.st.llc_hits + 1;
      t.cfg.Config.llc_hit
    end
    else begin
      Lru.add t.llc.(s) line;
      set_bit t.llch (d * t.llcw) s;
      t.st.mem_accesses <- t.st.mem_accesses + 1;
      t.cfg.Config.mem_access
    end
  in
  Lru.add t.l1.(c) line;
  set_bit t.l1h (d * t.l1w) c;
  cost

let l1_hit t =
  t.st.l1_hits <- t.st.l1_hits + 1;
  t.cfg.Config.l1_hit

let read t c line =
  if Lru.refresh t.l1.(c) line then l1_hit t
  else fill t c line (dir_slot t line)

(* Drop [line] from cache [i], [i + 1], ... for each set bit of [word],
   lowest first, stopping as soon as no higher bit is set. *)
let rec remove_holders lrus line i word =
  if word <> 0 then begin
    if word land 1 <> 0 then Lru.remove lrus.(i) line;
    remove_holders lrus line (i + 1) (word lsr 1)
  end

(* Invalidate [line] in every cache of [lrus] whose bit is set in the
   [width]-word holder set at [bits.(off)], except cache [own], and clear
   their bits.  Returns whether any copy was invalidated. *)
let rec invalidate lrus bits off width own line w found =
  if w = width then found
  else begin
    let word = bits.(off + w) in
    let kept =
      if own / bits_per_word = w then word land (1 lsl (own mod bits_per_word))
      else 0
    in
    let others = word lxor kept in
    if others <> 0 then begin
      remove_holders lrus line (w * bits_per_word) others;
      bits.(off + w) <- kept
    end;
    invalidate lrus bits off width own line (w + 1) (found || others <> 0)
  end

(* Invalidate every other private copy, and the LLC copies of other
   sockets.  The writer's own socket's LLC copy is updated in place. *)
let write t c line =
  let d = dir_slot t line in
  let s = Config.socket_of_context t.cfg c in
  let in_l1 = invalidate t.l1 t.l1h (d * t.l1w) t.l1w c line 0 false in
  let in_llc = invalidate t.llc t.llch (d * t.llcw) t.llcw s line 0 false in
  let base = if Lru.refresh t.l1.(c) line then l1_hit t else fill t c line d in
  if in_l1 || in_llc then begin
    t.st.invalidations <- t.st.invalidations + 1;
    base + t.cfg.Config.invalidation
  end
  else base

let access t ~context kind ~line =
  match (kind : Runtime.Ctx.access_kind) with
  | Read -> read t context line
  | Write -> write t context line
  | Cas -> write t context line + t.cfg.Config.cas_extra
  | Fence -> t.cfg.Config.fence
  | Work c -> c
