package ntfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Info describes one file or directory as seen by the filesystem driver.
type Info struct {
	Name     string
	Size     uint64
	Dir      bool
	Created  uint64
	Modified uint64
	Attrs    uint32
	Record   uint32
}

// CreateOptions controls Create.
type CreateOptions struct {
	Dir          bool
	Data         []byte
	DeclaredSize uint64 // advertised size if larger than len(Data); lets
	// workloads model multi-GB disks without storing the bytes
	Attrs    uint32
	Created  uint64
	Modified uint64
}

type node struct {
	name     string
	parent   uint32
	dir      bool
	children map[string]uint32 // upper-cased name -> record, dirs only
}

// Volume is a mounted NTFS-like volume. The device bytes are the truth;
// the node index is the filesystem driver's view, rebuilt from the bytes
// at mount time and kept in sync by mutations.
//
// A read-write lock makes the volume safe for concurrent readers
// (ReadDir, Stat, ReadFile, WithDevice raw parses) against serialized
// mutators. Device returns the live bytes without synchronization and is
// for single-threaded use only; concurrent raw reads go through
// WithDevice and out-of-band writes through PatchDevice.
type Volume struct {
	mu        sync.RWMutex
	dev       []byte
	geo       Geometry
	nodes     map[uint32]*node
	freeRec   uint32 // search hint
	usedBytes int64  // advertised bytes in use (directory sizes excluded)
	gen       uint64 // mutation generation, see Generation
	fault     DeviceFault
}

// Format creates a fresh volume with capacity for the given number of
// data clusters and MFT records.
func Format(dataClusters, mftRecords int) (*Volume, error) {
	if dataClusters < 1 || mftRecords < firstUserRec+1 {
		return nil, fmt.Errorf("ntfs: bad format parameters (%d clusters, %d records)", dataClusters, mftRecords)
	}
	mftClusters := (uint64(mftRecords)*RecordSize + ClusterSize - 1) / ClusterSize
	// Layout: [boot][bitmap][mft][data...]
	bitmapStart := uint64(1)
	// One bit per cluster; solve with a generous first guess then verify.
	total := 1 + uint64(dataClusters) + mftClusters
	bitmapClusters := (total/8 + ClusterSize) / ClusterSize // over-estimate is fine
	total += bitmapClusters
	geo := Geometry{
		TotalClusters:  total,
		BitmapStart:    bitmapStart,
		BitmapClusters: bitmapClusters,
		MFTStart:       bitmapStart + bitmapClusters,
		MFTRecords:     uint64(mftRecords),
	}
	v := &Volume{
		dev:   make([]byte, total*ClusterSize),
		geo:   geo,
		nodes: map[uint32]*node{},
	}
	encodeBoot(v.dev, geo)
	for c := uint64(0); c < geo.MFTStart+mftClusters; c++ {
		v.setBit(c, true)
	}
	// Metadata records. They hold names so that raw scans can label them.
	meta := []struct {
		num  uint32
		name string
		dir  bool
	}{
		{RecordMFT, "$MFT", false},
		{RecordBitmap, "$Bitmap", false},
		{RecordVolume, "$Volume", false},
		{RecordRoot, ".", true},
	}
	for _, m := range meta {
		rec := &Record{
			Num: m.num, Seq: 1, InUse: true, Dir: m.dir,
			Attrs: []Attribute{
				{Type: AttrStandardInformation, Content: encodeStandardInformation(StandardInformation{FileAttrs: FileAttrSystem})},
				{Type: AttrFileName, Content: encodeFileName(FileName{ParentRef: FileRef(RecordRoot, 1), Namespace: 1, Name: m.name})},
			},
		}
		if err := v.writeRecord(rec); err != nil {
			return nil, err
		}
	}
	v.nodes[RecordRoot] = &node{name: ".", parent: RecordRoot, dir: true, children: map[string]uint32{}}
	v.freeRec = firstUserRec
	return v, nil
}

// Mount re-parses a device image and rebuilds the driver index. Records
// whose parent chain is broken stay on disk but are unreachable through
// the driver — only a raw scan sees them.
func Mount(dev []byte) (*Volume, error) {
	geo, err := decodeBoot(dev)
	if err != nil {
		return nil, err
	}
	v := &Volume{dev: dev, geo: geo, nodes: map[uint32]*node{}, freeRec: firstUserRec}
	type pending struct {
		rec    uint32
		parent uint32
		name   string
		dir    bool
		size   uint64
	}
	var all []pending
	for i := uint32(0); uint64(i) < geo.MFTRecords; i++ {
		rec, err := v.readRecord(i)
		if err != nil {
			return nil, err
		}
		if !rec.InUse {
			continue
		}
		fn, err := rec.FileName()
		if err != nil {
			return nil, err
		}
		pnum, _ := SplitRef(fn.ParentRef)
		all = append(all, pending{rec: i, parent: pnum, name: fn.Name, dir: rec.Dir, size: fn.RealSize})
	}
	for _, p := range all {
		v.nodes[p.rec] = &node{name: p.name, parent: p.parent, dir: p.dir}
		if p.dir {
			v.nodes[p.rec].children = map[string]uint32{}
		}
		if !p.dir && p.rec >= firstUserRec {
			v.usedBytes += int64(p.size)
		}
	}
	for _, p := range all {
		if p.rec == RecordRoot || p.rec < firstUserRec && p.rec != RecordRoot {
			continue
		}
		parent, ok := v.nodes[p.parent]
		if ok && parent.dir {
			parent.children[strings.ToUpper(p.name)] = p.rec
		}
	}
	if _, ok := v.nodes[RecordRoot]; !ok {
		return nil, fmt.Errorf("%w: no root directory record", ErrCorrupt)
	}
	return v, nil
}

// Device returns the live device bytes. Inside-the-box low-level scans
// read these directly (GhostBuster parses them with RawScan). The
// returned slice is not synchronized with mutators; concurrent readers
// must use WithDevice instead.
func (v *Volume) Device() []byte { return v.dev }

// DeviceFault is a fault-injection hook over raw device reads. BeforeRead
// runs before the volume lock is taken (so it may call volume mutators to
// model a mid-scan mutation, or fail the read outright); CorruptImage may
// return a damaged copy of the image for this read — it must never modify
// the slice it is given, and returns nil to leave the read clean.
type DeviceFault interface {
	BeforeRead(op string) error
	CorruptImage(op string, dev []byte) []byte
}

// SetDeviceFault installs (or, with nil, removes) the raw-read fault hook.
func (v *Volume) SetDeviceFault(f DeviceFault) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.fault = f
}

func (v *Volume) deviceFault() DeviceFault {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.fault
}

// WithDevice runs f over the device bytes while holding the volume's
// read lock, so a raw parse sees a consistent image even while other
// goroutines mutate the volume. f must not retain the slice or call
// volume mutators (that would self-deadlock).
func (v *Volume) WithDevice(f func(dev []byte) error) error {
	return v.WithDeviceOp("raw-scan", f)
}

// WithDeviceOp is WithDevice with an explicit operation label passed to
// the fault hook, so fault plans can target one raw-read path (e.g. the
// boot-chain scan) without firing on every MFT parse.
func (v *Volume) WithDeviceOp(op string, f func(dev []byte) error) error {
	if fh := v.deviceFault(); fh != nil {
		if err := fh.BeforeRead(op); err != nil {
			return err
		}
		v.mu.RLock()
		defer v.mu.RUnlock()
		dev := v.dev
		if c := fh.CorruptImage(op, dev); c != nil {
			dev = c
		}
		return f(dev)
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	return f(v.dev)
}

// ReadDeviceRange copies n device bytes at off under the read lock.
// This is the *driver-side* raw read (the filesystem reading its own
// disk): it does not pass through the device fault hook, which models
// scanner-facing reads only.
func (v *Volume) ReadDeviceRange(off, n int) ([]byte, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if off < 0 || n < 0 || off+n > len(v.dev) {
		return nil, fmt.Errorf("%w: device read [%d,%d) outside device of %d bytes", ErrCorrupt, off, off+n, len(v.dev))
	}
	out := make([]byte, n)
	copy(out, v.dev[off:])
	return out, nil
}

// PatchDevice overwrites device bytes at off, bypassing the filesystem
// driver — the direct-disk-write trick ghostware uses to dodge the
// driver stack. The write is serialized against other volume operations
// and bumps the mutation generation.
func (v *Volume) PatchDevice(off int, data []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if off < 0 || off+len(data) > len(v.dev) {
		return fmt.Errorf("%w: device write [%d,%d) outside device of %d bytes", ErrCorrupt, off, off+len(data), len(v.dev))
	}
	copy(v.dev[off:], data)
	v.gen++
	return nil
}

// Generation returns the volume's mutation generation. Every operation
// that can change the device bytes bumps it, conservatively: a bump may
// happen even when the bytes end up unchanged (a failed create still
// counts), but bytes never change without a bump. Incremental scanners
// key parse caches on this value. Callers that write the device bytes
// directly (bypassing the Volume mutators) must use PatchDevice.
func (v *Volume) Generation() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.gen
}

// SnapshotImage returns a copy of the device, as the WinPE / VM outside
// scans would obtain by reading the physical disk. An injected read
// error here has no error channel, so it zeroes the copy's boot sector:
// an unreadable disk yields an unparseable image, which downstream
// parsers reject loudly.
func (v *Volume) SnapshotImage() []byte {
	fh := v.deviceFault()
	var readErr error
	if fh != nil {
		readErr = fh.BeforeRead("snapshot")
	}
	v.mu.RLock()
	out := make([]byte, len(v.dev))
	copy(out, v.dev)
	v.mu.RUnlock()
	if fh != nil {
		if c := fh.CorruptImage("snapshot", out); c != nil {
			out = c
		}
		if readErr != nil {
			for i := 0; i < BytesPerSector && i < len(out); i++ {
				out[i] = 0
			}
		}
	}
	return out
}

// Geometry returns the volume geometry.
func (v *Volume) Geometry() Geometry { return v.geo }

// UsedBytes returns the advertised bytes in use by user files.
func (v *Volume) UsedBytes() int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.usedBytes
}

// FileCount returns the number of in-use user records (files + dirs).
func (v *Volume) FileCount() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	n := 0
	for rec := range v.nodes {
		if rec >= firstUserRec {
			n++
		}
	}
	return n
}

// --- raw record and bitmap access ---------------------------------------

func (v *Volume) recordOffset(num uint32) (int, error) {
	if uint64(num) >= v.geo.MFTRecords {
		return 0, fmt.Errorf("%w: record %d out of range", ErrCorrupt, num)
	}
	return int(v.geo.MFTStart*ClusterSize) + int(num)*RecordSize, nil
}

func (v *Volume) readRecord(num uint32) (*Record, error) {
	off, err := v.recordOffset(num)
	if err != nil {
		return nil, err
	}
	return DecodeRecord(v.dev[off:off+RecordSize], num)
}

func (v *Volume) writeRecord(rec *Record) error {
	off, err := v.recordOffset(rec.Num)
	if err != nil {
		return err
	}
	b, err := rec.Encode()
	if err != nil {
		return err
	}
	copy(v.dev[off:], b)
	return nil
}

func (v *Volume) setBit(cluster uint64, used bool) {
	off := v.geo.BitmapStart*ClusterSize + cluster/8
	bit := byte(1) << (cluster % 8)
	if used {
		v.dev[off] |= bit
	} else {
		v.dev[off] &^= bit
	}
}

func (v *Volume) getBit(cluster uint64) bool {
	off := v.geo.BitmapStart*ClusterSize + cluster/8
	return v.dev[off]&(1<<(cluster%8)) != 0
}

// allocClusters finds n free clusters, preferring contiguous runs.
func (v *Volume) allocClusters(n int) ([]Extent, error) {
	var runs []Extent
	remaining := n
	var runStart uint64
	runLen := uint64(0)
	flush := func() {
		if runLen > 0 {
			runs = append(runs, Extent{Start: runStart, Count: runLen})
			runLen = 0
		}
	}
	for c := uint64(0); c < v.geo.TotalClusters && remaining > 0; c++ {
		if v.getBit(c) {
			flush()
			continue
		}
		if runLen == 0 {
			runStart = c
		}
		runLen++
		remaining--
	}
	flush()
	if remaining > 0 {
		return nil, fmt.Errorf("%w: need %d more clusters", ErrVolumeFull, remaining)
	}
	for _, r := range runs {
		for c := r.Start; c < r.Start+r.Count; c++ {
			v.setBit(c, true)
		}
	}
	return runs, nil
}

func (v *Volume) freeClusters(runs []Extent) {
	for _, r := range runs {
		for c := r.Start; c < r.Start+r.Count; c++ {
			v.setBit(c, false)
		}
	}
}

func (v *Volume) allocRecord() (uint32, error) {
	userRecs := uint32(v.geo.MFTRecords) - firstUserRec
	for i := uint32(0); i < userRecs; i++ {
		num := firstUserRec + (v.freeRec-firstUserRec+i)%userRecs
		rec, err := v.readRecord(num)
		if err != nil {
			return 0, err
		}
		if !rec.InUse {
			v.freeRec = num + 1
			return num, nil
		}
	}
	return 0, fmt.Errorf("%w: MFT exhausted", ErrVolumeFull)
}

// --- path resolution ------------------------------------------------------

// SplitPath normalizes a backslash-separated volume path into components.
// Paths are rooted at "\"; an empty or "\" path refers to the root.
func SplitPath(path string) []string {
	path = strings.Trim(path, "\\")
	if path == "" {
		return nil
	}
	return strings.Split(path, "\\")
}

func (v *Volume) resolve(path string) (uint32, error) {
	cur := uint32(RecordRoot)
	for _, comp := range SplitPath(path) {
		n := v.nodes[cur]
		if n == nil || !n.dir {
			return 0, fmt.Errorf("%w: %s", ErrNotDir, path)
		}
		next, ok := n.children[strings.ToUpper(comp)]
		if !ok {
			return 0, fmt.Errorf("%w: %s", ErrNotFound, path)
		}
		cur = next
	}
	return cur, nil
}

func splitDirBase(path string) (dir, base string) {
	comps := SplitPath(path)
	if len(comps) == 0 {
		return "", ""
	}
	return "\\" + strings.Join(comps[:len(comps)-1], "\\"), comps[len(comps)-1]
}

// --- mutation operations ---------------------------------------------------

// Create makes a file or directory at path. The parent must exist.
func (v *Volume) Create(path string, opt CreateOptions) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.create(path, opt)
}

func (v *Volume) create(path string, opt CreateOptions) error {
	v.gen++
	dir, base := splitDirBase(path)
	if base == "" {
		return fmt.Errorf("%w: empty path", ErrNotFound)
	}
	if len(base) > MaxNameLen {
		return fmt.Errorf("%w: %q", ErrNameTooLong, base)
	}
	parentRec, err := v.resolve(dir)
	if err != nil {
		return err
	}
	parent := v.nodes[parentRec]
	if !parent.dir {
		return fmt.Errorf("%w: %s", ErrNotDir, dir)
	}
	if _, dup := parent.children[strings.ToUpper(base)]; dup {
		return fmt.Errorf("%w: %s", ErrExists, path)
	}
	num, err := v.allocRecord()
	if err != nil {
		return err
	}
	old, err := v.readRecord(num)
	if err != nil {
		return err
	}
	size := uint64(len(opt.Data))
	if opt.DeclaredSize > size {
		size = opt.DeclaredSize
	}
	if opt.Dir {
		size = 0
	}
	rec := &Record{
		Num: num, Seq: old.Seq + 1, InUse: true, Dir: opt.Dir,
		Attrs: []Attribute{
			{Type: AttrStandardInformation, Content: encodeStandardInformation(StandardInformation{
				Created: opt.Created, Modified: opt.Modified, FileAttrs: opt.Attrs,
			})},
			{Type: AttrFileName, Content: encodeFileName(FileName{
				ParentRef: FileRef(parentRec, 1), RealSize: size, Namespace: 1, Name: base,
			})},
		},
	}
	if !opt.Dir {
		data, err := v.buildDataAttr(rec, opt.Data)
		if err != nil {
			return err
		}
		rec.Attrs = append(rec.Attrs, data)
	}
	if err := v.writeRecord(rec); err != nil {
		return err
	}
	n := &node{name: base, parent: parentRec, dir: opt.Dir}
	if opt.Dir {
		n.children = map[string]uint32{}
	} else {
		v.usedBytes += int64(size)
	}
	v.nodes[num] = n
	parent.children[strings.ToUpper(base)] = num
	return nil
}

// buildDataAttr stores data resident if it fits the record budget,
// otherwise in freshly allocated clusters.
func (v *Volume) buildDataAttr(rec *Record, data []byte) (Attribute, error) {
	resident := Attribute{Type: AttrData, Content: data}
	trial := *rec
	trial.Attrs = append(append([]Attribute(nil), rec.Attrs...), resident)
	if trial.encodedSize() <= RecordSize {
		return resident, nil
	}
	clusters := (len(data) + ClusterSize - 1) / ClusterSize
	runs, err := v.allocClusters(clusters)
	if err != nil {
		return Attribute{}, err
	}
	pos := 0
	for _, r := range runs {
		off := int(r.Start) * ClusterSize
		n := copy(v.dev[off:off+int(r.Count)*ClusterSize], data[pos:])
		pos += n
	}
	return Attribute{Type: AttrData, NonResident: true, Runs: runs, RealSize: uint64(len(data))}, nil
}

// MkdirAll creates a directory and any missing parents.
func (v *Volume) MkdirAll(path string, created uint64) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	comps := SplitPath(path)
	cur := ""
	for _, c := range comps {
		cur += "\\" + c
		err := v.create(cur, CreateOptions{Dir: true, Created: created, Modified: created})
		if err != nil && !strings.Contains(err.Error(), ErrExists.Error()) {
			return err
		}
	}
	return nil
}

// WriteFile replaces the data of an existing file.
func (v *Volume) WriteFile(path string, data []byte, modified uint64) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.writeFile(path, data, modified)
}

func (v *Volume) writeFile(path string, data []byte, modified uint64) error {
	v.gen++
	num, err := v.resolve(path)
	if err != nil {
		return err
	}
	n := v.nodes[num]
	if n.dir {
		return fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	rec, err := v.readRecord(num)
	if err != nil {
		return err
	}
	// Free old non-resident clusters and strip the main data attribute
	// (alternate data streams are untouched).
	var kept []Attribute
	var oldSize uint64
	for _, a := range rec.Attrs {
		if a.Type == AttrData && a.Name == "" {
			if a.NonResident {
				v.freeClusters(a.Runs)
				oldSize = a.RealSize
			} else {
				oldSize = uint64(len(a.Content))
			}
			continue
		}
		kept = append(kept, a)
	}
	rec.Attrs = kept
	data2, err := v.buildDataAttr(rec, data)
	if err != nil {
		return err
	}
	rec.Attrs = append(rec.Attrs, data2)
	// Refresh size and mtime in $FILE_NAME and $STANDARD_INFORMATION.
	fn, err := rec.FileName()
	if err != nil {
		return err
	}
	if fn.RealSize == oldSize || uint64(len(data)) > fn.RealSize {
		v.usedBytes += int64(len(data)) - int64(fn.RealSize)
		fn.RealSize = uint64(len(data))
	}
	rec.attr(AttrFileName).Content = encodeFileName(fn)
	si, err := rec.StandardInformation()
	if err != nil {
		return err
	}
	si.Modified = modified
	rec.attr(AttrStandardInformation).Content = encodeStandardInformation(si)
	return v.writeRecord(rec)
}

// Append appends data to an existing file (creating it if absent).
func (v *Volume) Append(path string, data []byte, modified uint64) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, err := v.resolve(path); err != nil {
		return v.create(path, CreateOptions{Data: data, Created: modified, Modified: modified})
	}
	old, err := v.readFile(path)
	if err != nil {
		return err
	}
	return v.writeFile(path, append(old, data...), modified)
}

// ReadFile returns the stored data of a file.
func (v *Volume) ReadFile(path string) ([]byte, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.readFile(path)
}

func (v *Volume) readFile(path string) ([]byte, error) {
	num, err := v.resolve(path)
	if err != nil {
		return nil, err
	}
	if v.nodes[num].dir {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	rec, err := v.readRecord(num)
	if err != nil {
		return nil, err
	}
	a := rec.attr(AttrData)
	if a == nil {
		return nil, nil
	}
	if !a.NonResident {
		return append([]byte(nil), a.Content...), nil
	}
	out := make([]byte, 0, a.RealSize)
	for _, r := range a.Runs {
		off := int(r.Start) * ClusterSize
		out = append(out, v.dev[off:off+int(r.Count)*ClusterSize]...)
	}
	return out[:a.RealSize], nil
}

// Remove deletes a file or empty directory: the record's in-use flag is
// cleared and its sequence number bumped, leaving a stale record behind
// exactly as NTFS does.
func (v *Volume) Remove(path string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.remove(path)
}

func (v *Volume) remove(path string) error {
	v.gen++
	num, err := v.resolve(path)
	if err != nil {
		return err
	}
	if num < firstUserRec {
		return fmt.Errorf("ntfs: cannot remove metadata record %d", num)
	}
	n := v.nodes[num]
	if n.dir && len(n.children) > 0 {
		return fmt.Errorf("%w: %s", ErrNotEmpty, path)
	}
	rec, err := v.readRecord(num)
	if err != nil {
		return err
	}
	for _, a := range rec.Attrs {
		if a.Type == AttrData && a.NonResident {
			v.freeClusters(a.Runs)
		}
	}
	if fn, err := rec.FileName(); err == nil && !n.dir {
		v.usedBytes -= int64(fn.RealSize)
	}
	rec.InUse = false
	rec.Seq++
	if err := v.writeRecord(rec); err != nil {
		return err
	}
	delete(v.nodes[n.parent].children, strings.ToUpper(n.name))
	delete(v.nodes, num)
	return nil
}

// RemoveAll removes path and all descendants.
func (v *Volume) RemoveAll(path string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.removeAll(path)
}

func (v *Volume) removeAll(path string) error {
	num, err := v.resolve(path)
	if err != nil {
		return err
	}
	n := v.nodes[num]
	if n.dir {
		names := make([]string, 0, len(n.children))
		for _, child := range n.children {
			names = append(names, path+"\\"+v.nodes[child].name)
		}
		for _, c := range names {
			if err := v.removeAll(c); err != nil {
				return err
			}
		}
	}
	return v.remove(path)
}

// --- driver-level queries ---------------------------------------------------

func (v *Volume) infoFor(num uint32) (Info, error) {
	rec, err := v.readRecord(num)
	if err != nil {
		return Info{}, err
	}
	fn, err := rec.FileName()
	if err != nil {
		return Info{}, err
	}
	si, err := rec.StandardInformation()
	if err != nil {
		return Info{}, err
	}
	return Info{
		Name: fn.Name, Size: fn.RealSize, Dir: rec.Dir,
		Created: si.Created, Modified: si.Modified, Attrs: si.FileAttrs, Record: num,
	}, nil
}

// Stat returns metadata for path.
func (v *Volume) Stat(path string) (Info, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	num, err := v.resolve(path)
	if err != nil {
		return Info{}, err
	}
	return v.infoFor(num)
}

// Exists reports whether path resolves.
func (v *Volume) Exists(path string) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	_, err := v.resolve(path)
	return err == nil
}

// ReadDir lists the children of a directory in name order. This is the
// filesystem driver's answer to an enumeration IRP — the base of the
// hookable call chain.
func (v *Volume) ReadDir(path string) ([]Info, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	num, err := v.resolve(path)
	if err != nil {
		return nil, err
	}
	n := v.nodes[num]
	if !n.dir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, path)
	}
	out := make([]Info, 0, len(n.children))
	for _, child := range n.children {
		info, err := v.infoFor(child)
		if err != nil {
			return nil, err
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return strings.ToUpper(out[i].Name) < strings.ToUpper(out[j].Name) })
	return out, nil
}
