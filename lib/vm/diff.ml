(* Flat encoding: [enc] holds the runs in increasing offset order, each
   an 8-byte descriptor (offset, then length, as native-endian int32s)
   followed by the run's bytes.  A diff is one record and one buffer
   whatever its run count; [enc] is never mutated once built, because a
   diff is shared by reference between nodes. *)
type t = { page : int; nruns : int; changed : int; enc : Bytes.t }

let header_bytes = 8

let run_descriptor_bytes = 4

(* In-memory descriptor size; the wire size billed by [size_bytes] keeps
   the 4-byte [run_descriptor_bytes]. *)
let desc_bytes = 8

(* Maximal runs of an [n]-byte extent are separated by at least one
   byte, so there are at most ⌈n/2⌉ of them carrying at most [n] bytes. *)
let max_enc_bytes n = (desc_bytes * ((n + 1) / 2)) + n

(* Per-domain scratch, grown on demand: [enc] receives the runs being
   encoded, [buf]/[covered] hold the replayed page extent in [merge].
   Like the twin pool in [Page], the scratch never escapes this module:
   every diff gets its own [Bytes.sub] copy of the encoding. *)
type scratch = {
  mutable enc : Bytes.t;
  mutable buf : Bytes.t;
  mutable covered : Bytes.t;
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
    { enc = Bytes.empty; buf = Bytes.empty; covered = Bytes.empty })

let enc_scratch s extent =
  let need = max_enc_bytes extent in
  if Bytes.length s.enc < need then s.enc <- Bytes.create need;
  s.enc

let[@inline] run_offset enc p = Int32.to_int (Bytes.get_int32_ne enc p)

let[@inline] run_length enc p = Int32.to_int (Bytes.get_int32_ne enc (p + 4))

let[@inline] put_descriptor enc w ~offset ~length =
  Bytes.set_int32_ne enc w (Int32.of_int offset);
  Bytes.set_int32_ne enc (w + 4) (Int32.of_int length)

let finish ~page ~nruns enc w =
  let enc = if w = 0 then Bytes.empty else Bytes.sub enc 0 w in
  { page; nruns; changed = w - (desc_bytes * nruns); enc }

let create ~page ~twin ~current =
  let len = Bytes.length twin in
  if Bytes.length current <> len then
    invalid_arg "Diff.create: twin and current differ in length";
  let enc = enc_scratch (Domain.DLS.get scratch_key) len in
  (* Single left-to-right scan collecting maximal differing runs.  Equal
     stretches are skipped a word at a time, but run boundaries are found
     byte by byte. *)
  let w = ref 0 and nruns = ref 0 and i = ref 0 in
  while !i < len do
    while
      !i + 8 <= len
      && Bytes.get_int64_ne twin !i = Bytes.get_int64_ne current !i
    do
      i := !i + 8
    done;
    while !i < len && Bytes.unsafe_get twin !i = Bytes.unsafe_get current !i do
      incr i
    done;
    if !i < len then begin
      let start = !i in
      let o = ref (!w + desc_bytes) in
      while
        !i < len && Bytes.unsafe_get twin !i <> Bytes.unsafe_get current !i
      do
        Bytes.unsafe_set enc !o (Bytes.unsafe_get current !i);
        incr i;
        incr o
      done;
      put_descriptor enc !w ~offset:start ~length:(!i - start);
      w := !o;
      incr nruns
    end
  done;
  finish ~page ~nruns:!nruns enc !w

let page t = t.page

let run_count t = t.nruns

let is_empty t = t.nruns = 0

let apply t target =
  let len = Bytes.length target in
  let p = ref 0 in
  for _ = 1 to t.nruns do
    let offset = run_offset t.enc !p and length = run_length t.enc !p in
    if offset + length > len then invalid_arg "Diff.apply: run out of bounds";
    Bytes.blit t.enc (!p + desc_bytes) target offset length;
    p := !p + desc_bytes + length
  done

(* One past the last byte any run of [t] touches. *)
let extent t =
  let p = ref 0 and last = ref 0 in
  for _ = 1 to t.nruns do
    let length = run_length t.enc !p in
    last := run_offset t.enc !p + length;
    p := !p + desc_bytes + length
  done;
  !last

let merge = function
  | [] -> invalid_arg "Diff.merge: empty"
  | [ d ] -> d
  | first :: _ as ds ->
    List.iter
      (fun d ->
        if d.page <> first.page then invalid_arg "Diff.merge: pages differ")
      ds;
    (* Replay the runs in order into scratch copies of the touched extent:
       later runs overwrite earlier ones, exactly as sequential [apply]
       would, then re-extract maximal covered runs. *)
    let extent = List.fold_left (fun acc d -> max acc (extent d)) 0 ds in
    let s = Domain.DLS.get scratch_key in
    if Bytes.length s.buf < extent then begin
      s.buf <- Bytes.create extent;
      s.covered <- Bytes.create extent
    end;
    let buf = s.buf and covered = s.covered in
    Bytes.fill covered 0 extent '\000';
    List.iter
      (fun d ->
        let p = ref 0 in
        for _ = 1 to d.nruns do
          let offset = run_offset d.enc !p and length = run_length d.enc !p in
          Bytes.blit d.enc (!p + desc_bytes) buf offset length;
          Bytes.fill covered offset length '\001';
          p := !p + desc_bytes + length
        done)
      ds;
    let enc = enc_scratch s extent in
    let w = ref 0 and nruns = ref 0 and i = ref 0 in
    while !i < extent do
      while !i + 8 <= extent && Bytes.get_int64_ne covered !i = 0L do
        i := !i + 8
      done;
      while !i < extent && Bytes.unsafe_get covered !i = '\000' do
        incr i
      done;
      if !i < extent then begin
        let start = !i in
        while !i < extent && Bytes.unsafe_get covered !i <> '\000' do
          incr i
        done;
        let length = !i - start in
        put_descriptor enc !w ~offset:start ~length;
        Bytes.blit buf start enc (!w + desc_bytes) length;
        w := !w + desc_bytes + length;
        incr nruns
      end
    done;
    finish ~page:first.page ~nruns:!nruns enc !w

let changed_bytes t = t.changed

let size_bytes t =
  header_bytes + (run_descriptor_bytes * t.nruns) + t.changed

let pp ppf t =
  Format.fprintf ppf "@[<h>diff(page %d:" t.page;
  let p = ref 0 in
  for _ = 1 to t.nruns do
    let offset = run_offset t.enc !p and length = run_length t.enc !p in
    Format.fprintf ppf " [%d..%d)" offset (offset + length);
    p := !p + desc_bytes + length
  done;
  Format.fprintf ppf ")@]"
