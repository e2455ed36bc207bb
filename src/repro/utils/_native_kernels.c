/* Native kernels behind repro.utils.native: the metadata cache drive,
 * the DRAM issue-order walk and the cycle-sorted block expansion.
 *
 * The drive replicates repro.utils.lru.LruCache (fully-associative,
 * write-back, write-allocate LRU) access-for-access, including the
 * exact event emission order of the scalar drives in
 * repro/protection/metadata_model.py:
 *
 *   - MAC discipline: miss fetch first, dirty-eviction writeback after;
 *   - VN discipline: dirty-eviction writeback first, then the fetch,
 *     then the integrity-tree ancestor walk up to the first cached
 *     node (or the on-chip root).
 *
 * The cache is a doubly linked LRU list over slot arrays plus an
 * open-addressing hash table (linear probing, backward-shift delete).
 * Every kernel has a pure numpy twin (the FALLBACKS manifest in
 * native.py) that serves hosts without a C compiler.
 */

#include <stdint.h>
#include <stdlib.h>

typedef int64_t i64;
typedef uint64_t u64;
typedef unsigned char u8;

typedef struct {
    i64 cap;            /* capacity in lines */
    i64 size;           /* resident lines */
    i64 *tag;           /* per slot */
    u8 *dirty;          /* per slot */
    i64 *prv, *nxt;     /* LRU list; head = LRU, tail = MRU */
    i64 head, tail;
    i64 *table;         /* hash slots -> entry slot index, -1 empty */
    u64 mask;
    i64 *freelist;
    i64 nfree;
    i64 hits, misses, evictions, dirty_evictions;
} Cache;

static u64 hash_tag(i64 t) {
    u64 x = (u64)t;
    x ^= x >> 30; x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27; x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

static int cache_init(Cache *c, i64 cap, i64 max_entries) {
    i64 n = cap < max_entries ? cap : max_entries;
    if (n < 1) n = 1;
    u64 tsize = 8;
    while (tsize < (u64)(4 * n)) tsize <<= 1;
    c->cap = cap;
    c->size = 0;
    c->head = c->tail = -1;
    c->mask = tsize - 1;
    c->hits = c->misses = c->evictions = c->dirty_evictions = 0;
    c->tag = (i64 *)malloc(sizeof(i64) * n);
    c->dirty = (u8 *)malloc(n);
    c->prv = (i64 *)malloc(sizeof(i64) * n);
    c->nxt = (i64 *)malloc(sizeof(i64) * n);
    c->table = (i64 *)malloc(sizeof(i64) * tsize);
    c->freelist = (i64 *)malloc(sizeof(i64) * n);
    if (!c->tag || !c->dirty || !c->prv || !c->nxt || !c->table
            || !c->freelist)
        return -1;
    for (u64 i = 0; i < tsize; i++) c->table[i] = -1;
    for (i64 i = 0; i < n; i++) c->freelist[i] = n - 1 - i;
    c->nfree = n;
    return 0;
}

static void cache_free(Cache *c) {
    free(c->tag); free(c->dirty); free(c->prv); free(c->nxt);
    free(c->table); free(c->freelist);
}

static i64 ht_find(const Cache *c, i64 t) {
    u64 i = hash_tag(t) & c->mask;
    for (;;) {
        i64 s = c->table[i];
        if (s < 0) return -1;
        if (c->tag[s] == t) return (i64)i;
        i = (i + 1) & c->mask;
    }
}

static void ht_insert(Cache *c, i64 t, i64 slot) {
    u64 i = hash_tag(t) & c->mask;
    while (c->table[i] >= 0) i = (i + 1) & c->mask;
    c->table[i] = slot;
}

static void ht_delete(Cache *c, u64 i) {
    /* linear-probing backward-shift deletion */
    u64 j = i;
    for (;;) {
        c->table[i] = -1;
        for (;;) {
            j = (j + 1) & c->mask;
            i64 s = c->table[j];
            if (s < 0) return;
            u64 k = hash_tag(c->tag[s]) & c->mask;
            int movable = (i <= j) ? (k <= i || k > j) : (k <= i && k > j);
            if (movable) { c->table[i] = s; i = j; break; }
        }
    }
}

static void lru_unlink(Cache *c, i64 s) {
    if (c->prv[s] >= 0) c->nxt[c->prv[s]] = c->nxt[s];
    else c->head = c->nxt[s];
    if (c->nxt[s] >= 0) c->prv[c->nxt[s]] = c->prv[s];
    else c->tail = c->prv[s];
}

static void lru_push_mru(Cache *c, i64 s) {
    c->prv[s] = c->tail;
    c->nxt[s] = -1;
    if (c->tail >= 0) c->nxt[c->tail] = s;
    else c->head = s;
    c->tail = s;
}

/* Access; returns 1 on hit.  On a dirty eviction *wb_addr is set to the
 * victim line address (tag * line_bytes); caller pre-sets it to -1. */
static int cache_access(Cache *c, i64 t, int write, i64 line_bytes,
                        i64 *wb_addr) {
    i64 h = ht_find(c, t);
    if (h >= 0) {
        i64 s = c->table[h];
        c->hits++;
        lru_unlink(c, s);
        lru_push_mru(c, s);
        if (write) c->dirty[s] = 1;
        return 1;
    }
    c->misses++;
    if (c->size >= c->cap) {
        i64 v = c->head;
        c->evictions++;
        if (c->dirty[v]) {
            c->dirty_evictions++;
            *wb_addr = c->tag[v] * line_bytes;
        }
        lru_unlink(c, v);
        ht_delete(c, (u64)ht_find(c, c->tag[v]));
        c->freelist[c->nfree++] = v;
        c->size--;
    }
    i64 s = c->freelist[--c->nfree];
    c->tag[s] = t;
    c->dirty[s] = write ? 1 : 0;
    lru_push_mru(c, s);
    ht_insert(c, t, s);
    c->size++;
    return 0;
}

static void cache_load(Cache *c, const i64 *tags, const u8 *dirty, i64 m,
                       i64 line_bytes) {
    i64 wb = -1;
    for (i64 i = 0; i < m; i++)
        cache_access(c, tags[i], dirty[i] != 0, line_bytes, &wb);
    /* state reconstruction is not traffic */
    c->hits = c->misses = c->evictions = c->dirty_evictions = 0;
}

static i64 cache_dump(const Cache *c, i64 *tags, u8 *dirty) {
    i64 n = 0;
    for (i64 s = c->head; s >= 0; s = c->nxt[s]) {
        tags[n] = c->tag[s];
        dirty[n] = c->dirty[s];
        n++;
    }
    return n;
}

typedef struct {
    i64 *cyc; i64 *addr; u8 *wr;
    i64 n, capn;
} Events;

static int emit(Events *e, i64 cyc, i64 addr, int wr) {
    if (e->n >= e->capn) return -1;
    e->cyc[e->n] = cyc;
    e->addr[e->n] = addr;
    e->wr[e->n] = (u8)wr;
    e->n++;
    return 0;
}

/* Fused MAC + VN drive over one block stream, run-compressed as it
 * walks: consecutive blocks with equal key >> key_shift (logical) form
 * one access, with their write flags OR'd and the first block's cycle.
 *
 * The access's metadata line is line = (key >> key_shift) * idx_mul;
 * MAC tag = mac_base + line, VN tag = vn_base + line.  A non-positive
 * mac_cap/vn_cap disables that side (callers bias tag bases so the
 * single-cache drives reuse this entry point).  The VN walk visits
 * levels 1..n_levels for leaf = leaf_base + line / leaf_div, with node
 * tag ``node_base[l-1] + (leaf / node_div[l-1]) * node_ratio``.
 *
 * stats[8] receives the run count, also after an overflow (the walk
 * then only counts), so the caller sizes its retry in runs.  Returns 0
 * on success, 1 when an event buffer overflowed (caller retries with
 * larger buffers), -1 on allocation failure.
 */
int drive_fused(
    const i64 *keys, const u8 *writes, const i64 *cycles, i64 n,
    i64 key_shift, i64 idx_mul, i64 line_bytes,
    i64 mac_base, i64 mac_cap,
    const i64 *mac_init_tags, const u8 *mac_init_dirty, i64 mac_init_len,
    i64 vn_base, i64 vn_cap, i64 leaf_base, i64 leaf_div,
    const i64 *vn_init_tags, const u8 *vn_init_dirty, i64 vn_init_len,
    i64 n_levels, const i64 *node_base, const i64 *node_div, i64 node_ratio,
    i64 *mac_ev_cyc, i64 *mac_ev_addr, u8 *mac_ev_wr, i64 mac_ev_cap,
    i64 *mac_ev_n,
    i64 *vn_ev_cyc, i64 *vn_ev_addr, u8 *vn_ev_wr, i64 vn_ev_cap,
    i64 *vn_ev_n,
    i64 *stats,
    i64 *mac_state_tags, u8 *mac_state_dirty, i64 *mac_state_len,
    i64 *vn_state_tags, u8 *vn_state_dirty, i64 *vn_state_len)
{
    Cache mac, vn;
    int rc = 0;
    int use_mac = mac_cap > 0, use_vn = vn_cap > 0;
    Events mev = {mac_ev_cyc, mac_ev_addr, mac_ev_wr, 0, mac_ev_cap};
    Events vev = {vn_ev_cyc, vn_ev_addr, vn_ev_wr, 0, vn_ev_cap};
    i64 runs = 0;

    if (use_mac) {
        if (cache_init(&mac, mac_cap, mac_init_len + n) < 0)
            return -1;
        cache_load(&mac, mac_init_tags, mac_init_dirty, mac_init_len,
                   line_bytes);
    }
    if (use_vn) {
        if (cache_init(&vn, vn_cap,
                       vn_init_len + n * (n_levels + 1)) < 0) {
            if (use_mac) cache_free(&mac);
            return -1;
        }
        cache_load(&vn, vn_init_tags, vn_init_dirty, vn_init_len,
                   line_bytes);
    }

    for (i64 i = 0; i < n;) {
        u64 key = (u64)keys[i] >> key_shift;
        int wr = writes[i] != 0;
        i64 cyc = cycles[i];
        for (i++; i < n && ((u64)keys[i] >> key_shift) == key; i++)
            wr |= writes[i] != 0;
        runs++;
        if (rc != 0)
            continue;
        i64 line = (i64)key * idx_mul;
        i64 wb = -1;
        if (use_mac
                && !cache_access(&mac, mac_base + line, wr, line_bytes, &wb)
                && (emit(&mev, cyc, (mac_base + line) * line_bytes, 0) < 0
                    || (wb >= 0 && emit(&mev, cyc, wb, 1) < 0))) {
            rc = 1;
            continue;
        }
        /* The VN line, then its tree ancestors up to the first hit. */
        for (i64 l = use_vn ? -1 : n_levels; l < n_levels; l++) {
            i64 tag = l < 0 ? vn_base + line : node_base[l]
                + ((leaf_base + line / leaf_div) / node_div[l]) * node_ratio;
            wb = -1;
            if (cache_access(&vn, tag, wr, line_bytes, &wb))
                break;
            if ((wb >= 0 && emit(&vev, cyc, wb, 1) < 0)
                    || emit(&vev, cyc, tag * line_bytes, 0) < 0) {
                rc = 1;
                break;
            }
        }
    }

    stats[8] = runs;
    *mac_ev_n = mev.n;
    *vn_ev_n = vev.n;
    if (use_mac) {
        stats[0] = mac.hits; stats[1] = mac.misses;
        stats[2] = mac.evictions; stats[3] = mac.dirty_evictions;
        *mac_state_len = cache_dump(&mac, mac_state_tags, mac_state_dirty);
        cache_free(&mac);
    } else {
        stats[0] = stats[1] = stats[2] = stats[3] = 0;
        *mac_state_len = 0;
    }
    if (use_vn) {
        stats[4] = vn.hits; stats[5] = vn.misses;
        stats[6] = vn.evictions; stats[7] = vn.dirty_evictions;
        *vn_state_len = cache_dump(&vn, vn_state_tags, vn_state_dirty);
        cache_free(&vn);
    } else {
        stats[4] = stats[5] = stats[6] = stats[7] = 0;
        *vn_state_len = 0;
    }
    return rc;
}

/* ---- DRAM model --------------------------------------------------- */

/* Serve one block under power-of-two mapping: one request on its
 * channel, and a row conflict when its bank's open row differs. */
#define DRAM_STEP(addr)                                                  \
    do {                                                                 \
        i64 block_ = (addr) >> block_shift;                              \
        i64 ch_ = block_ & ch_mask;                                      \
        i64 local_ = block_ >> channel_shift;                            \
        i64 gb_ = (ch_ << bank_shift) | ((local_ >> col_shift) & bank_mask); \
        i64 row_ = local_ >> row_shift;                                  \
        requests[ch_]++;                                                 \
        conflicts[ch_] += open_row[gb_] != row_;                         \
        open_row[gb_] = row_;                                            \
    } while (0)

/* Issue-order walk behind DramSim._walk: merges a data side and a
 * metadata side by cycle (ties data first, as in the concatenated
 * stream), keeps one open-row register per global bank and counts
 * requests and row conflicts per channel.  out[] holds channels
 * request counts, then channels conflict counts, then the
 * channels << bank_shift open-row registers (a row is an address
 * shifted right by at least the block shift, so with blocks of 2 B or
 * more no row equals the INT64_MIN "closed" mark).  Each side must be
 * cycle-sorted: returns 0, or 1 / 2 when the data / metadata side's
 * cycles descend (the counts are then partial). */
int dram_walk(const i64 *addrs_a, const i64 *cycles_a, i64 na,
              const i64 *addrs_b, const i64 *cycles_b, i64 nb,
              i64 block_shift, i64 channel_shift, i64 col_shift,
              i64 bank_shift, i64 *out)
{
    i64 channels = (i64)1 << channel_shift;
    i64 *requests = out, *conflicts = out + channels;
    i64 *open_row = out + 2 * channels;
    i64 ch_mask = channels - 1;
    i64 bank_mask = ((i64)1 << bank_shift) - 1;
    i64 row_shift = col_shift + bank_shift;
    for (i64 c = 0; c < 2 * channels; c++)
        out[c] = 0;
    for (i64 g = 0; g < channels << bank_shift; g++)
        open_row[g] = INT64_MIN;
    i64 i = 0, j = 0;
    i64 last_a = INT64_MIN, last_b = INT64_MIN;
    while (i < na && j < nb) {
        i64 cb = cycles_b[j];
        for (; i < na && cycles_a[i] <= cb; i++) {
            if (cycles_a[i] < last_a)
                return 1;
            last_a = cycles_a[i];
            DRAM_STEP(addrs_a[i]);
        }
        if (i == na)
            break;
        i64 ca = cycles_a[i];
        for (; j < nb && cycles_b[j] < ca; j++) {
            if (cycles_b[j] < last_b)
                return 2;
            last_b = cycles_b[j];
            DRAM_STEP(addrs_b[j]);
        }
    }
    for (; i < na; i++) {
        if (cycles_a[i] < last_a)
            return 1;
        last_a = cycles_a[i];
        DRAM_STEP(addrs_a[i]);
    }
    for (; j < nb; j++) {
        if (cycles_b[j] < last_b)
            return 2;
        last_b = cycles_b[j];
        DRAM_STEP(addrs_b[j]);
    }
    return 0;
}

#undef DRAM_STEP

/* ---- Block expansion ---------------------------------------------- */

/* Heap order of two ranges: earlier next-block cycle first, then lower
 * range index (the stable sort's tie order). */
#define MERGE_BEFORE(ca, ra, cb, rb) ((ca) < (cb) || ((ca) == (cb) && (ra) < (rb)))

/* Restore the min-heap below slot i (heap_r: range index, heap_c: its
 * next block's cycle). */
static void merge_sift_down(i64 *heap_r, i64 *heap_c, i64 size, i64 i)
{
    i64 r = heap_r[i], c = heap_c[i];
    for (;;) {
        i64 child = 2 * i + 1;
        if (child >= size)
            break;
        if (child + 1 < size && MERGE_BEFORE(heap_c[child + 1],
                heap_r[child + 1], heap_c[child], heap_r[child]))
            child++;
        if (!MERGE_BEFORE(heap_c[child], heap_r[child], c, r))
            break;
        heap_r[i] = heap_r[child];
        heap_c[i] = heap_c[child];
        i = child;
    }
    heap_r[i] = r;
    heap_c[i] = c;
}

/* Cycle-sorted block expansion of n ranges, behind
 * repro.accel.trace.expand_sorted.  Range r covers the blocks
 * first[r] + block_bytes * j (j < counts[r]), issued at
 * cycles[r] + (j * durations[r]) / counts[r]: non-decreasing in j, so
 * every range is an ascending run and a k-way merge of the runs keyed
 * (cycle, range index) yields exactly the stable cycle sort of the
 * range-order expansion.  The minimum range emits blocks while they
 * stay ahead of its heap children, so a long sequential run costs no
 * heap operations.  The caller guarantees counts[r] >= 0,
 * durations[r] >= 0, and that counts[r] * durations[r] and
 * cycles[r] + durations[r] fit in an int64.  Returns 0, or -1 when the
 * heap's scratch allocation fails (no output is then valid). */
int expand_merge(const i64 *cycles, const i64 *first, const i64 *counts,
                 const i64 *durations, const u8 *writes,
                 const int8_t *kinds, const int32_t *layer_ids, i64 n,
                 i64 block_bytes,
                 i64 *out_cycles, i64 *out_addrs, u8 *out_writes,
                 int8_t *out_kinds, int32_t *out_layer_ids)
{
    i64 *heap_r = (i64 *)malloc(sizeof(i64) * (n > 0 ? n : 1));
    i64 *heap_c = (i64 *)malloc(sizeof(i64) * (n > 0 ? n : 1));
    i64 *next = (i64 *)malloc(sizeof(i64) * (n > 0 ? n : 1));
    if (!heap_r || !heap_c || !next) {
        free(heap_r); free(heap_c); free(next);
        return -1;
    }
    i64 size = 0;
    for (i64 r = 0; r < n; r++) {
        next[r] = 0;
        if (counts[r] > 0) {
            heap_r[size] = r;
            heap_c[size] = cycles[r];
            size++;
        }
    }
    for (i64 i = size / 2 - 1; i >= 0; i--)
        merge_sift_down(heap_r, heap_c, size, i);
    i64 k = 0;
    while (size > 0) {
        i64 r = heap_r[0];
        /* The heap children hold the next-smallest key. */
        i64 lim_r = -1, lim_c = 0;
        if (size > 1) {
            i64 child = 1;
            if (size > 2 && MERGE_BEFORE(heap_c[2], heap_r[2],
                                         heap_c[1], heap_r[1]))
                child = 2;
            lim_r = heap_r[child];
            lim_c = heap_c[child];
        }
        i64 count = counts[r], dur = durations[r], base = cycles[r];
        i64 j = next[r];
        /* offset = (j * dur) / count, advanced without a division per
         * block: q + rem / count tracks j * dur / count exactly. */
        i64 q = (j * dur) / count, rem = (j * dur) % count;
        i64 step_q = dur / count, step_r = dur % count;
        i64 addr = first[r] + j * block_bytes;
        u8 wr = writes[r];
        int8_t kind = kinds[r];
        int32_t layer = layer_ids[r];
        for (; j < count; j++) {
            i64 cyc = base + q;
            if (lim_r >= 0 && !MERGE_BEFORE(cyc, r, lim_c, lim_r))
                break;
            out_cycles[k] = cyc;
            out_addrs[k] = addr;
            out_writes[k] = wr;
            out_kinds[k] = kind;
            out_layer_ids[k] = layer;
            k++;
            addr += block_bytes;
            q += step_q;
            rem += step_r;
            if (rem >= count) {
                rem -= count;
                q++;
            }
        }
        next[r] = j;
        if (j < count) {
            heap_c[0] = base + q;
        } else {
            size--;
            heap_r[0] = heap_r[size];
            heap_c[0] = heap_c[size];
        }
        merge_sift_down(heap_r, heap_c, size, 0);
    }
    free(heap_r); free(heap_c); free(next);
    return 0;
}

#undef MERGE_BEFORE
