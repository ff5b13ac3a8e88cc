(** A disk-based file system (the paper's `core` component includes
    "a disk-based and network-based file system").

    Classic layout on the simulated disk:
    {v
      blocks 0..k        reserved, never written
      blocks k+1..m      inode table (8 inodes per 512-byte block)
      blocks m+1..       data
    v}
    where [k] is 1 plus the blocks a bitmap of one bit per device block
    needs. Nothing reads a superblock or an allocation bitmap back, so
    none is written: the inode and data-block maps live in memory.
    Blocks 1..k stay reserved all the same, because the buffer cache
    holds 8-block pages: with the inode table at block 1, every data
    block moved against those pages, and the memory-pressure
    benchmark's p99 latency rose by a third.

    Inodes hold 12 direct block pointers and one indirect block (128
    pointers), so a file holds up to 71,680 bytes — enough for the
    paper's web objects and video frames. A single root directory
    (inode 0) maps names to inodes.

    All operations must run in strand context (they block on disk
    I/O). A file read always goes around the buffer cache, which is
    how the SPIN web server runs on a non-caching file system and
    manages its own object cache ({!File_cache}) instead; metadata
    (inodes, indirect blocks, the directory) goes through it. *)

type t

type error =
  | No_such_file
  | File_exists
  | No_space
  | File_too_large
  | Name_too_long

exception Fs_error of error

val format : Block_cache.t -> blocks:int -> unit -> t
(** Writes a fresh file system covering [blocks] blocks of the disk,
    with 512 inodes, and returns it. *)

val create : t -> name:string -> unit
(** Creates an empty file. Raises [Fs_error File_exists] or
    [Name_too_long] (names are at most 27 bytes). *)

val write : t -> name:string -> Bytes.t -> unit
(** Replaces the file's contents. *)

val read : t -> name:string -> Bytes.t
(** Whole-file read, around the buffer cache. *)

val size : t -> name:string -> int

val exists : t -> name:string -> bool

val list_files : t -> string list

val free_blocks : t -> int
