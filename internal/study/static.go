package study

import (
	"fmt"
	"strconv"
	"sync"

	"realtracer/internal/geo"
	"realtracer/internal/media"
	"realtracer/internal/player"
	"realtracer/internal/session"
	"realtracer/internal/tracer"
)

// Static is the part of a world that its options fix and no event writes:
// the server sites, the user population, the route table, the clip
// libraries, the playlist, each server's addresses and the seeds every
// server and panel user runs on. A clip lays out its scenes and renders its
// DESCRIBE body on first use, once for every world that plays it.
//
// NewStatic builds it once, and every world instantiated from it — by
// NewWorld, or by Resume from a snapshot of such a world — shares it
// read-only and allocates only what its events write. The worlds of a
// warm-fork sweep share one, concurrently (campaign.RunWarmForks).
type Static struct {
	opt      Options // filled
	sites    []geo.ServerSite
	active   []geo.ServerSite // the sites that serve clips, in site order
	users    []*geo.User
	routes   *geo.RouteTable
	playlist []tracer.Entry
	clips    []*media.Clip  // every library's, in playlist order
	servers  []staticServer // one per active site
	// userSeeds are the panel users' seeds (none in an open-loop world).
	userSeeds []int64
	// dataAddrs is each server's UDP data address by its control address:
	// a player's SETUP sends from a socket connected to it.
	dataAddrs map[string]string

	// strs is what names returns, built by the first Resume on the static
	// world.
	strsOnce sync.Once
	strs     map[string]string
}

// staticServer is one active site's server as its options fix it.
type staticServer struct {
	site geo.ServerSite
	lib  *media.Library // the clips the server serves
	seed int64
}

// NewStatic validates opt and builds the static part of the world it
// describes.
func NewStatic(opt Options) (*Static, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	opt.fill()
	s := &Static{opt: opt, sites: geo.Sites(), dataAddrs: make(map[string]string)}
	// Up to the paper's 63 participants, a prefix of its panel; past them, a
	// proportionally apportioned population at the requested size.
	s.users = geo.PopulationN(opt.PopulationSeed(), max(opt.pool(), geo.PopulationSize))[:opt.pool()]
	s.routes = geo.NewRouteTable(s.sites, s.users, opt.CongestionScale)

	siteSeeds, userSeeds := opt.masterSeeds(s.sites)
	s.userSeeds = userSeeds
	s.playlist = make([]tracer.Entry, 0, geo.PlaylistSize)
	for si, site := range s.sites {
		if site.Clips == 0 {
			continue
		}
		lib := media.GenerateLibrary(site.Host, site.Clips, opt.librarySeed(si))
		ctrl := hostPort(site.Host, session.ControlPort)
		s.dataAddrs[ctrl] = hostPort(site.Host, session.DataUDPPort)
		for _, clip := range lib.Clips {
			s.playlist = append(s.playlist, tracer.Entry{URL: clip.URL, ControlAddr: ctrl, Site: site})
		}
		s.clips = append(s.clips, lib.Clips...)
		s.active = append(s.active, site)
		s.servers = append(s.servers, staticServer{site: site, lib: lib, seed: siteSeeds[si]})
	}
	if len(s.playlist) != geo.PlaylistSize {
		return nil, fmt.Errorf("study: playlist has %d entries, want %d", len(s.playlist), geo.PlaylistSize)
	}
	if opt.OpenLoop() {
		// Every server carries the full clip set, so a selection policy can
		// re-home any request; the panel keeps each clip at its home site.
		lib := media.NewLibrary(s.clips)
		for i := range s.servers {
			s.servers[i].lib = lib
		}
	}
	return s, nil
}

func hostPort(host string, port int) string { return host + ":" + strconv.Itoa(port) }

// dataAddr is the UDP data address of the server at control address ctrl,
// or "" for an address no server of the world listens on.
func (s *Static) dataAddr(ctrl string) string { return s.dataAddrs[ctrl] }

// names returns every name the static world holds — sites, servers and
// their addresses, users and the labels their records carry, clips — each
// keyed by itself, for a resume's decoder to hand out instead of building
// copies (snap.Codec.Share). Built on the first call; read-only after.
func (s *Static) names() map[string]string {
	s.strsOnce.Do(func() {
		m := make(map[string]string)
		add := func(vs ...string) {
			for _, v := range vs {
				m[v] = v
			}
		}
		for _, site := range s.sites {
			add(site.Name, site.Host, site.Country, geo.AnalysisServerRegion(site.Region).String(), hostPort(site.Host, session.DataTCPPort))
		}
		for ctrl, data := range s.dataAddrs {
			add(ctrl, data)
		}
		pcs := player.PCClasses()
		for _, u := range s.users {
			add(u.Name, u.Country, u.State, geo.AnalysisUserRegion(u.Region).String(), u.Access.String(), pcs[u.PCClass].Name)
		}
		for _, clip := range s.clips {
			add(clip.URL, clip.Title)
		}
		s.strs = m
	})
	return s.strs
}
